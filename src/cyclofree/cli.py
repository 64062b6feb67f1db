"""Batch command line surface; every run is reproducible and machine readable.

Each command computes a payload (JSON, or CSV for point clouds), writes it
to --out or stdout, and emits a run manifest carrying the parameters, the
seed (null for the commands that sample nothing: only symcheck takes
--seed), and a SHA-256 digest of the payload bytes.  Payload bytes depend
only on the parameters and the seed, never on wall time, so rerunning a
manifest reproduces the digest.  The digest comes from CPython's built-in
SHA-256 module, not from hashlib, whose OpenSSL library would add about
3.6 MB to every process.

A point payload is streamed from the sieve's occupancy grid a chunk at a
time, hashed and written as it is encoded, so memory grows with the box's
cells, not with its points times their text.  Everything that can refuse a
command runs before the first byte is written.  The manifest follows the
last chunk, and its wall_time_s covers encoding, hashing and writing too.
A command that fails partway through leaves no --out file and no manifest
behind.

Exit codes: 0 success, 2 invalid parameters, 3 resource limit, 4
verification failure (a failed symmetry check is loud by design).

Only the standard library is imported at module level; each command
imports the library functions it runs, so ``admissible`` loads neither
the zeta nor the symmetry module, and no command pays for another's.
Likewise only the invoked command's parser is built.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import time
from collections.abc import Iterable, Iterator
from pathlib import Path

from . import __version__

try:  # CPython's built-in SHA-256 (see the module docstring)
    from _sha2 import sha256  # 3.12 and later
except ImportError:
    try:
        from _sha256 import sha256  # 3.10, 3.11
    except ImportError:
        from hashlib import sha256

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_RESOURCE = 3
EXIT_VERIFY = 4

# Grid cells read per chunk of a point payload.
PAYLOAD_BLOCK = 1 << 14


# Parsed arguments the manifest does not list as parameters: the command
# and the seed have fields of their own, func is the handler, and where the
# payload goes does not change its bytes.
_NOT_PARAMETERS = ("command", "func", "out", "seed")


def _emit(args, chunks: Iterable[bytes], start: float, write) -> str:
    """Write the payload chunk by chunk, hashing each, and return the
    manifest text; its wall_time_s runs from start to the last chunk."""
    digest = sha256()
    for chunk in chunks:
        digest.update(chunk)
        write(chunk)
    return json.dumps({
        "command": args.command,
        "parameters": {key: value for key, value in vars(args).items() if key not in _NOT_PARAMETERS},
        "seed": getattr(args, "seed", None),
        "version": __version__,
        "wall_time_s": round(time.perf_counter() - start, 6),
        "output_digest": digest.hexdigest(),
    }, sort_keys=True) + "\n"


def _point_chunks(box, fmt: str) -> Iterator[bytes]:
    """CSV rows or a JSON document of the box's points, in lexicographic
    order, as byte chunks read from PAYLOAD_BLOCK grid cells at a time.
    Each value -r..r of column j has its text, with the column's
    separators, in one NUL-padded entry of a (d, 2r+1) byte-string table; a
    chunk takes one entry per (point, column), and bytes.translate drops the
    padding."""
    import numpy as np

    d, r = box.d, box.r
    if fmt == "csv":
        head = ",".join(f"x{i+1}" for i in range(d)) + "\n"
        before, after, tail, cut = [""] + [","] * (d - 1), [""] * (d - 1) + ["\n"], "", 0
    else:
        doc = {"n": box.n, "k": box.k, "radius": box.r, "count": box.count, "points": "@"}
        head, tail = json.dumps(doc, sort_keys=True).split('"@"')
        head, tail = head + "[", "]" + tail + "\n"
        # every row ends in "], "; the last row's ", " is cut, so one chunk is held back
        before, after, cut = ["["] + [", "] * (d - 1), [""] * (d - 1) + ["], "], 2
    table = np.array(
        [[f"{pre}{v}{post}".encode() for v in range(-r, r + 1)] for pre, post in zip(before, after)]
    )
    flat, offsets = table.reshape(-1), np.arange(d) * (2 * r + 1)
    yield head.encode()
    held = b""
    for cells in box.cell_blocks(PAYLOAD_BLOCK):
        if held:
            yield held
        cells += offsets
        held = flat[cells].tobytes().translate(None, b"\0")
    yield held[: len(held) - cut] + tail.encode()


def _points_payload(box, fmt: str) -> bytes:
    """The whole point payload as one byte string (the chunks joined)."""
    return b"".join(_point_chunks(box, fmt))


def _run(args) -> int:
    """Run a command's body, emit its payload and manifest, then run its
    follow-up.  Each cmd_* body returns (payload chunks, follow-up or None)
    after everything that can refuse the command has run, so --out is
    opened only then; the chunks may be a generator that encodes as it is
    written.  A follow-up writes side reports after the manifest and
    returns the exit code.  The manifest parameters are the command's
    parsed options, and its wall time covers the body and the encoding,
    hashing and writing of the payload.

    Whatever fails, from the first chunk to the follow-up, the files this
    run opened (the --out payload, then its manifest) are removed, so no
    payload is left cut short or without its manifest.  A path that open()
    refused is never touched."""
    start = time.perf_counter()
    chunks, after = args.func(args)
    opened = []
    try:
        if not args.out:  # every payload ends in a newline
            sys.stderr.write(_emit(args, chunks, start, lambda chunk: sys.stdout.write(chunk.decode("utf-8"))))
        else:
            with open(args.out, "wb") as fh:
                opened.append(args.out)
                manifest = _emit(args, chunks, start, fh.write)
            with open(str(args.out) + ".manifest.json", "w", encoding="utf-8") as fh:
                opened.append(fh.name)
                fh.write(manifest)
        return after() if after else EXIT_OK
    except BaseException:
        for path in opened:
            Path(path).unlink(missing_ok=True)
        raise


def _line(text: str) -> list[bytes]:
    """A one-line payload as its single chunk."""
    return [(text + "\n").encode("utf-8")]


def cmd_sieve(args):
    from .kfree import density_estimate, sieve_box

    box = sieve_box(args.n, args.k, args.radius)
    report = density_estimate(box, prime_bound=args.prime_bound)

    def side_report() -> int:
        if args.out:
            Path(str(args.out) + ".density.json").write_text(report.to_json() + "\n", encoding="utf-8")
        else:
            sys.stderr.write(report.to_json() + "\n")
        return EXIT_OK

    return _point_chunks(box, args.format), side_report


def cmd_density(args):
    from .kfree import density_estimate, sieve_box

    box = sieve_box(args.n, args.k, args.radius)
    report = density_estimate(box, prime_bound=args.prime_bound)
    return _line(report.to_json()), None


def cmd_zeta(args):
    from .zeta import dedekind_zeta

    value = dedekind_zeta(args.n, args.k, args.prime_bound)
    return _line(value.to_json()), None


def cmd_entropy(args):
    from .zeta import entropy_constant, interval_to_json

    interval = entropy_constant(args.n, args.k, args.prime_bound)
    text = interval_to_json(
        interval, n=args.n, k=args.k, prime_bound=args.prime_bound, constant="entropy"
    )
    return _line(text), None


def cmd_admissible(args):
    from .kfree import is_admissible, patch_from_json

    text = Path(vars(args)["in"]).read_text(encoding="utf-8")
    cells, n, k = patch_from_json(text)
    verdict = is_admissible(cells, n, k)
    payload = _line(json.dumps({"admissible": verdict, "n": n, "k": k, "cells": len(cells)}, sort_keys=True))
    return payload, None


def cmd_symcheck(args):
    from .kfree import sieve_box
    from .symmetries import generator_elements, sample_rows, verify_stabiliser_actions

    box = sieve_box(args.n, args.k, args.radius)
    sample = sample_rows(box, args.samples, args.seed)
    reports = verify_stabiliser_actions(generator_elements(args.n), box, sample)
    failures = sum(len(r.failures) for r in reports)
    payload = _line(json.dumps({
        "n": args.n,
        "k": args.k,
        "radius": args.radius,
        "samples": args.samples,
        "elements": [r.to_dict() for r in reports],
        "total_checked": sum(r.checked for r in reports),
        "total_failures": failures,
    }, sort_keys=True))

    def verdict() -> int:
        if failures:
            sys.stderr.write(f"symcheck: {failures} failures; this falsifies the stabiliser law\n")
            return EXIT_VERIFY
        return EXIT_OK

    return payload, verdict


def cmd_aq(args):
    from .certificates import aq_search

    candidate = aq_search(args.n, args.q, args.ell_bound, args.a_bound)
    return _line(candidate.to_json()), None


def cmd_patches(args):
    from .kfree import census_entropy, extract_patches, shape_offsets, sieve_box

    shape = shape_offsets(json.loads(args.shape))
    box = sieve_box(args.n, args.k, args.radius)
    census = extract_patches(box, shape)
    payload = _line(json.dumps({
        "n": args.n,
        "k": args.k,
        "radius": args.radius,
        "shape": [list(off) for off in shape],
        "anchors": sum(census.values()),
        "distinct_patterns": len(census),
        "entropy_estimate": census_entropy(census),
        "counts": {p.fill_bits: c for p, c in sorted(census.items(), key=lambda t: t[0].fill)},
    }, sort_keys=True))
    return payload, None


def _add_common(parser, radius=False, prime_bound=None):
    parser.add_argument("--out", type=str, default=None, help="payload file (default stdout)")
    if radius:
        parser.add_argument("--radius", type=int, required=True, help="box half-width")
    if prime_bound is not None:
        parser.add_argument("--prime-bound", dest="prime_bound", type=int, default=prime_bound)


_REQUIRED_INT = {"type": int, "required": True}
_N_K = (("--n", _REQUIRED_INT), ("--k", _REQUIRED_INT))

# Each command: its help line, its handler, its own options as (flag,
# add_argument keywords) in help order, and the keywords of _add_common.
_COMMANDS = {
    "sieve": ("materialize the k-free points of a box", cmd_sieve,
              (*_N_K, ("--format", {"choices": ("csv", "json"), "default": "csv"})),
              {"radius": True, "prime_bound": 10_000}),
    "density": ("empirical density against the zeta interval", cmd_density,
                _N_K, {"radius": True, "prime_bound": 100_000}),
    "zeta": ("rigorous enclosure of the Dedekind zeta value", cmd_zeta,
             _N_K, {"prime_bound": 100_000}),
    "entropy": ("enclosure of the entropy constant log(2)/zeta", cmd_entropy,
                _N_K, {"prime_bound": 100_000}),
    "admissible": ("admissibility of a patch file", cmd_admissible,
                   (("--in", {"type": str, "required": True}),), {}),
    "symcheck": ("verify generator symmetries on sieved points", cmd_symcheck,
                 (*_N_K, ("--samples", {"type": int, "default": 1000}),
                  ("--seed", {"type": int, "default": 0, "help": "seed of the point sample"})),
                 {"radius": True}),
    "aq": ("search the least a_q meeting (H1)(H2)(H3)", cmd_aq,
           tuple((flag, _REQUIRED_INT) for flag in ("--n", "--q", "--ell-bound", "--a-bound")), {}),
    "patches": ("patch census over a sieved box", cmd_patches,
                (*_N_K, ("--shape", {"type": str, "required": True, "help": "JSON list of offsets"})),
                {"radius": True}),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every command in _COMMANDS, or of that one command
    alone.  The one-command parser names every command in its usage line,
    as the full parser does, so the root parser's errors (an unrecognized
    option among them) read the same; the full parser keeps argparse's
    default, whose "invalid choice" and "required" errors name the
    argument "command"."""
    parser = argparse.ArgumentParser(
        prog="cyclofree",
        description="k-free cyclotomic integers: sieves, zeta constants, symmetries",
    )
    names = list(_COMMANDS) if command is None else [command]
    metavar = None if command is None else "{" + ",".join(_COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in names:
        help_text, func, options, common = _COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        for flag, keywords in options:
            p.add_argument(flag, **keywords)
        _add_common(p, **common)
        p.set_defaults(func=func)
    return parser


def _loaded_error(module: str, name: str):
    """The exception class ``name`` of the package's ``module`` once that
    module is loaded, else () which matches nothing: no code can have
    raised an instance of it before."""
    owner = sys.modules.get(f"{__package__}.{module}")
    return () if owner is None else getattr(owner, name)


def main(argv=None) -> int:
    """Parse argv (default sys.argv[1:]) and run its command.  When argv
    starts with a command name, only that command's parser is built."""
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser(argv[0] if argv and argv[0] in _COMMANDS else None).parse_args(argv)
    try:
        return _run(args)
    except (ValueError, OSError) as exc:
        # arith.ConductorError is a ValueError; a missing --in file or a
        # directory as --in or --out is an OSError
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INVALID
    except _loaded_error("arith", "ResourceCapError") as exc:
        # every refusal for a cap, AqNotFound among them, named by its label
        sys.stderr.write(f"{exc.label}: {exc}\n")
        return EXIT_RESOURCE


def run() -> None:
    """The process entry (``python -m cyclofree.cli``, the ``cyclofree``
    script): main with the cyclic collector off, then gc.freeze, so that the
    collections at interpreter teardown skip every object alive at exit;
    atexit and flushing still run.  A command leaves a few dozen objects of
    cyclic garbage (argparse's parser cycles) whatever its input, so the
    collector's passes during the imports and the work would free nothing
    that grows."""
    gc.disable()
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
