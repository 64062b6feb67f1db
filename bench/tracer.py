"""Run cyclofree CLI commands in one process, with a span around each layer.

    python3 bench/tracer.py COMMANDS_JSON SPANS_JSON

COMMANDS_JSON is a list of {"argv": [...], "stdout": path, "stderr": path}.
Each command runs through ``cyclofree.cli.main`` with its standard streams
redirected to the given files.  Public functions of the library modules are
wrapped from here, so no library code changes: every call records a span
(name, start ns, end ns, index of the parent span) in memory, and a few
wrappers record counts.  Spans nest in call order, which is the pipeline
order (enumerate, ideal_lattice, sieve_box, materialise, splitting_type,
dedekind_zeta), so each ``lru_cache`` layer is paid inside its own span the
first time it is called.  SPANS_JSON receives {"spans", "counts",
"exit_codes"} once all commands have ended.

Generators (``points_in_box``, ``enumerate_prime_ideals``) are drained inside
their span, so the span covers the walk rather than the generator's creation;
their callers consume every item anyway.
"""

from __future__ import annotations

import functools
import json
import sys
from time import perf_counter_ns

SPANS: list = []
STACK = [-1]
COUNTS: dict[str, int] = {}


def bump(name: str, amount: int = 1) -> None:
    COUNTS[name] = COUNTS.get(name, 0) + amount


def spanned(name: str, fn, after=None):
    """Wrap fn in a span; after(result) runs inside the span and replaces the result."""

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        index = len(SPANS)
        SPANS.append(None)
        parent = STACK[-1]
        STACK.append(index)
        start = perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
            if after is not None:
                result = after(result)
        finally:
            end = perf_counter_ns()
            STACK.pop()
            SPANS[index] = (name, start, end, parent)
        bump(name + ".calls")
        return result

    return traced


def drain(count_name: str):
    def after(generator):
        items = list(generator)
        bump(count_name, len(items))
        return iter(items)

    return after


def counted(name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        bump(name)
        return fn(*args, **kwargs)

    return wrapper


def install():
    """Replace each traced function wherever a cyclofree module holds it.

    Returns the ``cache_info`` of ``ideal_lattice``, whose size at the end is
    the number of distinct lattices built.
    """
    from cyclofree import arith, cli, cyclotomic, kfree, lattices, prime_ideals, symmetries, zeta

    lattice_cache_info = lattices.ideal_lattice.cache_info

    def after_sieve(box):
        # Box points the sieve cleared; only sieve_box walks lattice points,
        # so removed / lattices.points_in_box.points is the removal yield.
        bump("kfree.sieve_box.removed", box.box_volume - box.count)
        return box

    def after_payload(payload):
        bump("cli.payload.bytes", len(payload))
        return payload

    def after_verify(report):
        bump("symmetries.verify_stabiliser_action.checked", report.checked)
        return report

    layers = [
        (arith, "factor_integer", "arith.factor_integer", None),
        (prime_ideals, "enumerate_prime_ideals", "prime_ideals.enumerate_prime_ideals",
         drain("prime_ideals.enumerate_prime_ideals.ideals")),
        (prime_ideals, "splitting_type", "prime_ideals.splitting_type", None),
        (prime_ideals, "valuation", "prime_ideals.valuation", None),
        (prime_ideals, "is_kfree", "prime_ideals.is_kfree", None),
        (lattices, "ideal_lattice", "lattices.ideal_lattice", None),
        (lattices.IdealLattice, "points_in_box", "lattices.points_in_box",
         drain("lattices.points_in_box.points")),
        (kfree, "sieve_box", "kfree.sieve_box", after_sieve),
        (kfree.KFreeBox, "sorted_points", "kfree.sorted_points", None),
        (kfree, "patch_from_json", "kfree.patch_from_json", None),
        (kfree, "is_admissible", "kfree.is_admissible", None),
        (cli, "_points_payload", "cli.payload", after_payload),
        (zeta, "dedekind_zeta", "zeta.dedekind_zeta", None),
        (zeta, "log_interval", "zeta.log_interval", None),
        (symmetries, "generator_elements", "symmetries.generator_elements", None),
        (symmetries, "verify_stabiliser_action", "symmetries.verify_stabiliser_action", after_verify),
        (cyclotomic.CycInt, "norm", "cyclotomic.CycInt.norm", None),
    ]
    # Modules also hold functions they imported by name (``from .kfree import sieve_box``).
    modules = [m for name, m in sys.modules.items() if name.startswith("cyclofree") and m is not None]
    for owner, attr, layer, after in layers:
        original = getattr(owner, attr)
        wrapped = spanned(layer, original, after)
        setattr(owner, attr, wrapped)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapped)
    lattices.IdealLattice.coset_id = counted("kfree.is_admissible.coset_ids", lattices.IdealLattice.coset_id)
    return lattice_cache_info


def main(argv: list[str]) -> int:
    commands_path, spans_path = argv
    with open(commands_path, encoding="utf-8") as fh:
        commands = json.load(fh)
    import_span = spanned("cli.import", lambda: __import__("cyclofree.cli"))
    import_span()
    import cyclofree.cli as cli

    lattice_cache_info = install()
    run = spanned("cli.main", cli.main)
    exit_codes = []
    stdout, stderr = sys.stdout, sys.stderr
    for command in commands:
        with open(command["stdout"], "w", encoding="utf-8") as out, \
                open(command["stderr"], "w", encoding="utf-8") as err:
            sys.stdout, sys.stderr = out, err
            try:
                exit_codes.append(run(command["argv"]))
            finally:
                sys.stdout, sys.stderr = stdout, stderr
    COUNTS["lattices.ideal_lattice.lattices"] = lattice_cache_info().currsize
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"spans": SPANS, "counts": COUNTS, "exit_codes": exit_codes}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
