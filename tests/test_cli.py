import gc
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from _oracles import points_payload_by_format

from cyclofree import arith, cli
from cyclofree.arith import ResourceCapError
from cyclofree.cli import PAYLOAD_BLOCK, _point_chunks, _points_payload, main
from cyclofree.kfree import KFreeBox, PatchConfig, patch_to_json, sieve_box


def run(tmp_path, *argv):
    out = tmp_path / "payload.out"
    code = main(list(argv) + ["--out", str(out)])
    manifest_path = tmp_path / "payload.out.manifest.json"
    manifest = json.loads(manifest_path.read_text()) if manifest_path.exists() else None
    payload = out.read_bytes() if out.exists() else b""
    return code, payload, manifest


class TestSieveCommand:
    def test_csv_rows_are_the_kfree_points(self, tmp_path):
        code, payload, manifest = run(
            tmp_path, "sieve", "--n", "4", "--k", "2", "--radius", "10"
        )
        assert code == 0
        lines = payload.decode().strip().splitlines()
        assert lines[0] == "x1,x2"
        assert 0 < len(lines) - 1 < 21 * 21
        assert manifest["output_digest"]
        density = json.loads((tmp_path / "payload.out.density.json").read_text())
        assert density["box_volume"] == 441

    def test_invalid_conductor_is_exit_two(self, tmp_path):
        code, _, _ = run(tmp_path, "sieve", "--n", "2", "--k", "2", "--radius", "5")
        assert code == 2
        code, _, _ = run(tmp_path, "sieve", "--n", "6", "--k", "2", "--radius", "5")
        assert code == 2

    def test_resource_cap_is_exit_three(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CYCLOFREE_MAX_POINTS", "10")
        code, _, _ = run(tmp_path, "sieve", "--n", "4", "--k", "2", "--radius", "5")
        assert code == 3

    def test_resource_cap_message_at_degree_20010(self, tmp_path, capsys):
        # The box holds 3^20010 points, a number of more than 4300 digits:
        # the refusal writes it as a power and holds no table of degree d.
        code, payload, _ = run(tmp_path, "sieve", "--n", "20011", "--k", "2", "--radius", "1")
        assert code == 3 and payload == b""
        assert capsys.readouterr().err.startswith("resource limit: box has 3^20010 points")

    def test_rerun_keeps_digest(self, tmp_path):
        digests = set()
        for attempt in range(3):
            sub = tmp_path / f"run{attempt}"
            sub.mkdir()
            _, _, manifest = run(sub, "sieve", "--n", "4", "--k", "2", "--radius", "8")
            digests.add(manifest["output_digest"])
        assert len(digests) == 1

    def test_large_run_roundtrips_csv(self, tmp_path):
        code, payload, _ = run(
            tmp_path, "sieve", "--n", "4", "--k", "2", "--radius", "120"
        )
        assert code == 0
        lines = payload.decode().strip().splitlines()
        density = json.loads((tmp_path / "payload.out.density.json").read_text())
        assert len(lines) - 1 == density["point_count"]
        # spot check a row parses back into coordinates
        x, y = map(int, lines[1].split(","))
        assert abs(x) <= 120 and abs(y) <= 120

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_builds_no_point_array(self, tmp_path, monkeypatch, fmt):
        expected = points_payload_by_format(sieve_box(5, 2, 4), fmt)

        def refuse(self):
            raise AssertionError("point_array called")

        monkeypatch.setattr(KFreeBox, "point_array", refuse)
        code, payload, _ = run(tmp_path, "sieve", "--n", "5", "--k", "2", "--radius", "4", "--format", fmt)
        assert code == 0 and payload == expected

    def test_stdout_payload_is_the_out_payload(self, tmp_path, capsys):
        argv = ["sieve", "--n", "4", "--k", "2", "--radius", "150", "--format", "json"]
        assert main(argv) == 0
        written, err = capsys.readouterr()
        manifest = json.loads(err.splitlines()[0])
        _, payload, _ = run(tmp_path, *argv)
        assert written.encode() == payload
        assert manifest["output_digest"] == hashlib.sha256(payload).hexdigest()

    def test_json_format(self, tmp_path):
        code, payload, _ = run(
            tmp_path, "sieve", "--n", "4", "--k", "2", "--radius", "3", "--format", "json"
        )
        doc = json.loads(payload)
        assert doc["n"] == 4 and doc["count"] == len(doc["points"])


class TestZetaCommands:
    def test_zeta_payload_parses_and_orders(self, tmp_path):
        code, payload, manifest = run(
            tmp_path, "zeta", "--n", "4", "--k", "2", "--prime-bound", "5000"
        )
        assert code == 0
        doc = json.loads(payload)
        assert float(doc["lower"]) <= float(doc["upper"])
        assert manifest["parameters"]["prime_bound"] == 5000

    def test_k_one_rejected(self, tmp_path):
        code, _, _ = run(tmp_path, "zeta", "--n", "4", "--k", "1", "--prime-bound", "5000")
        assert code == 2

    def test_entropy_below_log_two(self, tmp_path):
        code, payload, _ = run(
            tmp_path, "entropy", "--n", "4", "--k", "2", "--prime-bound", "5000"
        )
        assert code == 0
        doc = json.loads(payload)
        assert float(doc["upper"]) < 0.6931471805599454

    def test_density_command(self, tmp_path):
        code, payload, _ = run(
            tmp_path, "density", "--n", "4", "--k", "2", "--radius", "30",
            "--prime-bound", "5000",
        )
        assert code == 0
        doc = json.loads(payload)
        assert doc["point_count"] > 0
        assert doc["relative_gap"] < 0.05


class TestPointsPayload:
    """The byte-table encoder against the %-format one it replaced."""

    @pytest.mark.parametrize(
        "n, radius",
        # one-, two- and three-digit coordinates; d = 2 at n = 3, 4 and d = 4 at n = 5, 12
        [(3, 4), (3, 15), (4, 3), (4, 40), (4, 120), (5, 3), (5, 10), (12, 2), (12, 9)],
    )
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_bytes_match_the_format_oracle(self, n, radius, fmt):
        box = sieve_box(n, 2, radius)
        assert _points_payload(box, fmt) == points_payload_by_format(box, fmt)

    def test_box_past_one_block(self):
        box = sieve_box(3, 3, 150)
        assert len(box.point_array()) > 2 * PAYLOAD_BLOCK
        for fmt in ("csv", "json"):
            assert _points_payload(box, fmt) == points_payload_by_format(box, fmt)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_chunks_cross_grid_steps_at_degree_four(self, fmt):
        # 21^4 = 194,481 cells: the head, then one chunk per grid step, the
        # last one carrying the tail
        box = sieve_box(5, 2, 10)
        chunks = list(_point_chunks(box, fmt))
        assert len(chunks) == 1 + -(-box.box_volume // PAYLOAD_BLOCK) > 4
        assert b"".join(chunks) == points_payload_by_format(box, fmt)

    @pytest.mark.parametrize("block", [7, 64])
    @pytest.mark.parametrize(
        "n, radius",
        # d = 2, 4 and 6; at d = 6 up to radius 3, where a block of 7 cells
        # already gives 16,807 chunks
        [(4, r) for r in range(1, 7)] + [(5, r) for r in range(1, 7)] + [(7, r) for r in range(1, 4)],
    )
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_chunk_edges_inside_grid_rows(self, monkeypatch, n, radius, block, fmt):
        # 7 and 64 are no multiple of the odd sides 3..13 (7 aside), so the
        # chunks end inside grid rows, and a run of 7 cells may hold no
        # k-free cell at all
        monkeypatch.setattr(cli, "PAYLOAD_BLOCK", block)
        box = sieve_box(n, 2, radius)
        assert _points_payload(box, fmt) == points_payload_by_format(box, fmt)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_box_without_points(self, fmt):
        box = sieve_box(4, 2, 2)
        box.grid[...] = False
        assert _points_payload(box, fmt) == points_payload_by_format(box, fmt)


class TestAdmissibleCommand:
    def test_empty_patch_is_admissible(self, tmp_path):
        patch_file = tmp_path / "patch.json"
        patch = PatchConfig(shape=((0, 0), (0, 1)), fill=0)
        patch_file.write_text(patch_to_json(patch, 4, 2))
        code, payload, _ = run(tmp_path, "admissible", "--in", str(patch_file))
        assert code == 0
        assert json.loads(payload)["admissible"] is True

    def test_full_cover_patch_is_not(self, tmp_path):
        shape = tuple((a, b) for a in range(4) for b in range(4))
        patch = PatchConfig(shape=shape, fill=(1 << 16) - 1)
        patch_file = tmp_path / "cover.json"
        patch_file.write_text(patch_to_json(patch, 4, 2))
        code, payload, _ = run(tmp_path, "admissible", "--in", str(patch_file))
        assert code == 0
        assert json.loads(payload)["admissible"] is False

    def test_missing_file_is_exit_two(self, tmp_path):
        code, _, _ = run(tmp_path, "admissible", "--in", str(tmp_path / "nope.json"))
        assert code == 2

    def test_directory_as_input_is_exit_two(self, tmp_path, capsys):
        code, payload, _ = run(tmp_path, "admissible", "--in", str(tmp_path))
        assert code == 2 and payload == b""
        assert capsys.readouterr().err.startswith("error: ")

    def test_k_below_two_is_exit_two(self, tmp_path, capsys):
        patch_file = tmp_path / "patch.json"
        patch = PatchConfig(shape=((0, 0), (0, 1)), fill=0b11)
        for k in (1, 0):
            patch_file.write_text(patch_to_json(patch, 4, k))
            code, payload, _ = run(tmp_path, "admissible", "--in", str(patch_file))
            assert code == 2 and payload == b""
            assert "k must be >= 2" in capsys.readouterr().err

    def test_non_integer_offset_is_exit_two(self, tmp_path, capsys):
        patch_file = tmp_path / "patch.json"
        patch_file.write_text(json.dumps({"n": 4, "k": 2, "shape": [[0, 0], [0, 1.5]], "fill": "11"}))
        code, payload, _ = run(tmp_path, "admissible", "--in", str(patch_file))
        assert code == 2 and payload == b""
        assert capsys.readouterr().err == "error: shape offsets must be lists of integers\n"

    @pytest.mark.parametrize(
        "document, message",
        [
            ({"n": 4, "k": 2, "shape": [[0, 0], 5], "fill": "11"}, "shape offsets must be lists of integers"),
            ({"n": 4, "k": 2, "fill": "11"}, "patch file lacks shape"),
            ([{"n": 4, "k": 2, "shape": [[0, 0]], "fill": "1"}], "a patch file holds one JSON object"),
            (
                {"n": 5, "k": 2, "shape": [[0, 0], [0, 1], [1, 0]], "fill": "111"},
                "points must be offsets of length 4 for conductor 5",
            ),
            ({"n": 4, "k": 2, "shape": [[0, 0], [1]], "fill": "11"}, "shape offsets must share one length"),
            ({"n": 4, "k": 2, "shape": [[0, 0], [0, "3"]], "fill": "11"}, "shape offsets must be lists of integers"),
            ({"n": 4, "k": 2, "shape": [[0, 0], [0, True]], "fill": "11"}, "shape offsets must be lists of integers"),
        ],
        ids=[
            "offset-not-a-list", "no-shape", "top-level-list", "offsets-of-another-dimension",
            "ragged-offsets", "string-offset", "bool-offset",
        ],
    )
    def test_malformed_patch_file_is_exit_two(self, tmp_path, capsys, document, message):
        patch_file = tmp_path / "patch.json"
        patch_file.write_text(json.dumps(document))
        code, payload, _ = run(tmp_path, "admissible", "--in", str(patch_file))
        assert code == 2 and payload == b""
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_admissible_does_not_import_numpy_ma(self, tmp_path):
        shape = tuple((a, b) for a in range(4) for b in range(4))
        patch_file = tmp_path / "cover.json"
        patch_file.write_text(patch_to_json(PatchConfig(shape=shape, fill=(1 << 16) - 1), 4, 2))
        script = (
            "import sys; from cyclofree.cli import main; "
            f"code = main(['admissible', '--in', {str(patch_file)!r}, '--out', {str(tmp_path / 'out')!r}]); "
            "assert code == 0, code; assert 'numpy.ma' not in sys.modules"
        )
        done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert done.returncode == 0, done.stderr


class TestSymcheckCommand:
    def test_gaussian_generators_pass(self, tmp_path):
        code, payload, _ = run(
            tmp_path, "symcheck", "--n", "4", "--k", "2", "--radius", "12",
            "--samples", "60",
        )
        assert code == 0
        doc = json.loads(payload)
        assert doc["total_failures"] == 0
        assert doc["total_checked"] > 0

    def test_box_is_sieved_once(self, tmp_path, monkeypatch):
        import cyclofree.kfree as kfree_mod

        calls = []
        real = kfree_mod.sieve_box

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(kfree_mod, "sieve_box", counting)
        code, _, _ = run(
            tmp_path, "symcheck", "--n", "12", "--k", "2", "--radius", "2",
            "--samples", "10",
        )
        assert code == 0
        assert calls == [(12, 2, 2)]

    def test_failures_exit_four(self, tmp_path, monkeypatch):
        # the mathematics cannot produce a failure, so fake one to pin the
        # exit-code contract
        import cyclofree.symmetries as symmetries_mod
        from cyclofree.symmetries import ActionReport

        def broken(elements, box, sample):
            return [
                ActionReport(
                    n=element.n, k=box.k, element=element.describe(), checked=1,
                    failures=[(0, 1)],
                )
                for element in elements
            ]

        monkeypatch.setattr(symmetries_mod, "verify_stabiliser_actions", broken)
        code, _, _ = run(
            tmp_path, "symcheck", "--n", "4", "--k", "2", "--radius", "5",
            "--samples", "5",
        )
        assert code == 4

    def test_seed_changes_payload_but_not_verdict(self, tmp_path):
        a = run(tmp_path, "symcheck", "--n", "4", "--k", "2", "--radius", "12",
                "--samples", "60", "--seed", "1")
        sub = tmp_path / "b"
        sub.mkdir()
        b = run(sub, "symcheck", "--n", "4", "--k", "2", "--radius", "12",
                "--samples", "60", "--seed", "1")
        assert a[2]["output_digest"] == b[2]["output_digest"]


class TestAqCommand:
    def test_search_payload(self, tmp_path):
        code, payload, _ = run(
            tmp_path, "aq", "--n", "12", "--q", "13", "--ell-bound", "500",
            "--a-bound", "100000",
        )
        assert code == 0
        doc = json.loads(payload)
        assert doc["a"] == 6 and doc["q"] == 13

    def test_exhausted_search_is_exit_three(self, tmp_path):
        code, _, _ = run(
            tmp_path, "aq", "--n", "12", "--q", "13", "--ell-bound", "500",
            "--a-bound", "4",
        )
        assert code == 3

    def test_exhausted_search_is_a_labelled_resource_cap(self, tmp_path, capsys):
        from cyclofree.certificates import AqNotFound

        assert issubclass(AqNotFound, ResourceCapError)
        assert (AqNotFound.label, ResourceCapError.label) == ("search exhausted", "resource limit")
        argv = ["aq", "--n", "12", "--q", "13", "--ell-bound", "500", "--a-bound", "4"]
        assert main(argv + ["--out", str(tmp_path / "a.json")]) == 3
        assert capsys.readouterr().err == "search exhausted: no candidate for n=12, q=13 in [1, 4]\n"
        assert list(tmp_path.iterdir()) == []


class TestPatchesCommand:
    def test_census_payload(self, tmp_path):
        code, payload, _ = run(
            tmp_path, "patches", "--n", "4", "--k", "2", "--radius", "20",
            "--shape", "[[0,0],[0,1],[1,0],[1,1]]",
        )
        assert code == 0
        doc = json.loads(payload)
        assert doc["distinct_patterns"] == len(doc["counts"])
        assert sum(doc["counts"].values()) == doc["anchors"]

    @pytest.mark.parametrize("shape", ["[[0,0],5]", "[[0,0],[0,1.5]]"], ids=["offset-not-a-list", "float-offset"])
    def test_malformed_shape_is_exit_two(self, tmp_path, capsys, shape):
        code, payload, _ = run(tmp_path, "patches", "--n", "4", "--k", "2", "--radius", "5", "--shape", shape)
        assert code == 2 and payload == b""
        assert capsys.readouterr().err == "error: shape offsets must be lists of integers\n"


# Each command with its manifest parameters: every option it parsed but
# --out and --seed, under the option's name ("{patch}" is a patch file).
MANIFEST_CASES = [
    (["sieve", "--n", "4", "--k", "2", "--radius", "3"],
     {"n": 4, "k": 2, "radius": 3, "format": "csv", "prime_bound": 10_000}),
    (["density", "--n", "4", "--k", "2", "--radius", "3", "--prime-bound", "1000"],
     {"n": 4, "k": 2, "radius": 3, "prime_bound": 1000}),
    (["zeta", "--n", "5", "--k", "3"], {"n": 5, "k": 3, "prime_bound": 100_000}),
    (["entropy", "--n", "4", "--k", "2", "--prime-bound", "1000"], {"n": 4, "k": 2, "prime_bound": 1000}),
    (["admissible", "--in", "{patch}"], {"in": "{patch}"}),
    (["symcheck", "--n", "4", "--k", "2", "--radius", "3", "--samples", "5", "--seed", "2"],
     {"n": 4, "k": 2, "radius": 3, "samples": 5}),
    (["aq", "--n", "12", "--q", "13", "--ell-bound", "500", "--a-bound", "100000"],
     {"n": 12, "q": 13, "ell_bound": 500, "a_bound": 100_000}),
    (["patches", "--n", "4", "--k", "2", "--radius", "5", "--shape", "[[0,0],[0,1]]"],
     {"n": 4, "k": 2, "radius": 5, "shape": "[[0,0],[0,1]]"}),
]


class TestManifest:
    @pytest.mark.parametrize("argv, parameters", MANIFEST_CASES, ids=[argv[0] for argv, _ in MANIFEST_CASES])
    def test_parameters_of_every_command(self, tmp_path, argv, parameters):
        patch_file = tmp_path / "patch.json"
        patch_file.write_text(patch_to_json(PatchConfig(shape=((0, 0), (0, 1)), fill=0b01), 4, 2))
        argv = [arg.format(patch=patch_file) for arg in argv]
        parameters = {key: value.format(patch=patch_file) if isinstance(value, str) else value
                      for key, value in parameters.items()}
        code, _, manifest = run(tmp_path, *argv)
        assert code == 0
        assert manifest["command"] == argv[0] and manifest["parameters"] == parameters
        assert manifest["seed"] == (2 if argv[0] == "symcheck" else None)

    def test_directory_as_output_is_exit_two(self, tmp_path, capsys):
        code = main(["zeta", "--n", "4", "--k", "2", "--prime-bound", "1000", "--out", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize(
        "error, code", [(OSError("device full"), 2), (ResourceCapError("too many"), 3)], ids=["os", "cap"]
    )
    def test_failure_partway_leaves_no_payload(self, tmp_path, monkeypatch, error, code):
        def failing(box, fmt):
            yield b"x1,x2\n"
            yield b"1,0\n"
            raise error

        monkeypatch.setattr(cli, "_point_chunks", failing)
        out = tmp_path / "p.csv"
        assert main(["sieve", "--n", "4", "--k", "2", "--radius", "3", "--out", str(out)]) == code
        assert list(tmp_path.iterdir()) == []

    def test_rho_out_of_budget_is_exit_three(self, tmp_path, monkeypatch, capsys):
        # ring_degree factors the conductor, a product of two 30-bit primes
        monkeypatch.setattr(arith, "RHO_STEP_BUDGET", 10)
        conductor = 1_000_000_007 * 999_999_937
        assert main(["zeta", "--n", str(conductor), "--k", "2", "--out", str(tmp_path / "z.json")]) == 3
        assert capsys.readouterr().err.startswith("resource limit: rho took ")
        assert list(tmp_path.iterdir()) == []

    def test_failed_follow_up_leaves_no_payload(self, tmp_path, capsys):
        # the density report of sieve cannot be written over a directory
        out = tmp_path / "p.csv"
        (tmp_path / "p.csv.density.json").mkdir()
        assert main(["sieve", "--n", "4", "--k", "2", "--radius", "3", "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert [path.name for path in tmp_path.iterdir()] == ["p.csv.density.json"]

    def test_wall_time_covers_writing(self, tmp_path, monkeypatch):
        def slow(box, fmt):
            yield b"x1,x2\n"
            time.sleep(0.2)

        monkeypatch.setattr(cli, "_point_chunks", slow)
        code, _, manifest = run(tmp_path, "sieve", "--n", "4", "--k", "2", "--radius", "3")
        assert code == 0 and manifest["wall_time_s"] >= 0.2

    def test_unwritable_manifest_leaves_no_payload(self, tmp_path, capsys):
        out = tmp_path / "z.json"
        (tmp_path / "z.json.manifest.json").mkdir()
        code = main(["zeta", "--n", "4", "--k", "2", "--prime-bound", "1000", "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()


    def test_manifest_cut_short_leaves_no_files(self, tmp_path):
        # A 100-byte file size limit lets the payload through whole and
        # cuts its longer manifest short: the write past the limit fails
        # with EFBIG (the interpreter ignores SIGXFSZ).
        resource = pytest.importorskip("resource")
        patch_file = tmp_path / "patch.json"
        patch_file.write_text(patch_to_json(PatchConfig(shape=((0, 0), (0, 1)), fill=0b11), 4, 2))
        out_dir = tmp_path / "out"
        out_dir.mkdir()

        def limit_file_size():
            resource.setrlimit(resource.RLIMIT_FSIZE, (100, 100))

        done = subprocess.run(
            [sys.executable, "-B", "-m", "cyclofree.cli", "admissible", "--in", str(patch_file),
             "--out", str(out_dir / "a.json")],
            capture_output=True, text=True, preexec_fn=limit_file_size,
        )
        assert done.returncode == 2 and done.stderr.startswith("error: ")
        assert list(out_dir.iterdir()) == []


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        out = tmp_path / "z.json"
        proc = subprocess.run(
            [sys.executable, "-m", "cyclofree.cli", "zeta", "--n", "4", "--k", "2",
             "--prime-bound", "2000", "--out", str(out)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(out.read_text())["n"] == 4

    @staticmethod
    def module_run(*argv):
        # stdout buffered, as it is by default on a pipe
        env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
        return subprocess.run([sys.executable, "-m", "cyclofree.cli", *argv], capture_output=True, env=env)

    def test_resource_refusal_exits_three(self):
        assert self.module_run("sieve", "--n", "4000037", "--k", "2", "--radius", "1").returncode == 3

    def test_missing_input_file_exits_two(self, tmp_path):
        proc = self.module_run("admissible", "--in", str(tmp_path / "missing.json"))
        assert proc.returncode == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ("sieve", "--n", "4", "--k", "2", "--radius", "100", "--format", "csv"),
            # one short line, which stays in the stdout buffer until exit
            ("zeta", "--n", "4", "--k", "2", "--prime-bound", "2000"),
        ],
        ids=lambda argv: argv[0],
    )
    def test_stdout_payload_is_whole_at_exit(self, argv):
        # The payload goes through buffered stdout, so its digest only
        # matches the manifest if shutdown still flushes every byte.
        proc = self.module_run(*argv)
        assert proc.returncode == 0
        records = [json.loads(line) for line in proc.stderr.decode().splitlines()]
        [manifest] = [r for r in records if "output_digest" in r]
        assert manifest["output_digest"] == hashlib.sha256(proc.stdout).hexdigest()

    def test_main_in_process_leaves_the_heap_unfrozen(self, tmp_path):
        frozen = gc.get_freeze_count()
        code, _, _ = run(tmp_path, "zeta", "--n", "4", "--k", "2", "--prime-bound", "2000")
        assert code == 0
        assert gc.get_freeze_count() == frozen

    @pytest.mark.parametrize("enabled", [True, False])
    def test_main_in_process_leaves_the_collector_as_it_found_it(self, tmp_path, enabled):
        was = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            code, _, _ = run(tmp_path, "zeta", "--n", "4", "--k", "2", "--prime-bound", "2000")
            assert code == 0 and gc.isenabled() == enabled
        finally:
            (gc.enable if was else gc.disable)()

    def test_run_turns_the_collector_off(self, tmp_path):
        script = (
            "import atexit, gc, sys\n"
            "from cyclofree import cli\n"
            "atexit.register(lambda: print('collector', gc.isenabled()))\n"
            "cli.run()\n"
        )
        argv = ["zeta", "--n", "4", "--k", "2", "--prime-bound", "2000", "--out", str(tmp_path / "z.json")]
        done = subprocess.run([sys.executable, "-c", script, *argv], capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        assert done.stdout == "collector False\n"

    def test_cyclic_garbage_does_not_grow_with_the_input(self, tmp_path):
        # Once every module is imported, what a command leaves for the
        # cyclic collector is the same at two input sizes, so running with
        # the collector off (cli.run) keeps no garbage that grows.
        patches = []
        for radius in (1, 20):
            shape = tuple(sieve_box(4, 2, radius).sorted_points())
            patches.append(tmp_path / f"patch{radius}.json")
            patches[-1].write_text(patch_to_json(PatchConfig(shape=shape, fill=(1 << len(shape)) - 1), 4, 2))
        symcheck = ("symcheck", "--n", "4", "--k", "2", "--radius", "5", "--samples")
        pairs = [
            [("sieve", "--n", "4", "--k", "2", "--radius", str(r), "--prime-bound", "1000") for r in (5, 60)],
            [(*symcheck, str(s)) for s in (5, 200)],
            [("admissible", "--in", str(path)) for path in patches],
        ]
        script = (
            "import gc, importlib, json, pkgutil, sys\n"
            "import cyclofree\n"
            "for module in pkgutil.iter_modules(cyclofree.__path__):\n"
            "    importlib.import_module(f'cyclofree.{module.name}')\n"
            "from cyclofree.cli import main\n"
            "gc.collect()\n"
            "gc.disable()\n"
            "counts = []\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    assert main(argv) == 0\n"
            "    counts.append(gc.collect())\n"
            "print(json.dumps([counts, gc.isenabled()]))\n"
        )
        argvs = [[*argv, "--out", str(tmp_path / "payload.out")] for pair in pairs for argv in pair]
        done = subprocess.run([sys.executable, "-c", script, json.dumps(argvs)], capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        counts, enabled = json.loads(done.stdout)
        assert counts[0::2] == counts[1::2] and not enabled


# A valid argv of each command, for parsing alone.
COMMAND_OPTIONS = {
    "sieve": ("--n", "4", "--k", "2", "--radius", "3", "--format", "json"),
    "density": ("--n", "4", "--k", "2", "--radius", "3"),
    "zeta": ("--n", "4", "--k", "2", "--prime-bound", "2000"),
    "entropy": ("--n", "4", "--k", "2"),
    "admissible": ("--in", "patch.json"),
    "symcheck": ("--n", "4", "--k", "2", "--radius", "3", "--samples", "5"),
    "aq": ("--n", "12", "--q", "13", "--ell-bound", "100", "--a-bound", "10"),
    "patches": ("--n", "4", "--k", "2", "--radius", "3", "--shape", "[[0, 0]]"),
}


def parse_exit(capsys, parse, argv):
    """(exit code, stdout, stderr) of a parse that exits, as --help and a
    parse error do."""
    with pytest.raises(SystemExit) as exited:
        parse(argv)
    return (exited.value.code, *capsys.readouterr())


class TestParser:
    @pytest.mark.parametrize("command", list(COMMAND_OPTIONS))
    def test_one_command_parser_reads_as_the_full_parser(self, capsys, command):
        full = cli.build_parser()
        argv = [command, *COMMAND_OPTIONS[command]]
        assert vars(cli.build_parser(command).parse_args(argv)) == vars(full.parse_args(argv))
        # help, a missing required option, an unknown option (reported by the root parser)
        for bad in ([command, "--help"], [command], [*argv, "--bogus", "3"]):
            assert parse_exit(capsys, main, bad) == parse_exit(capsys, full.parse_args, bad), bad

    def test_every_command_is_covered(self):
        assert set(COMMAND_OPTIONS) == set(cli._COMMANDS)

    @pytest.mark.parametrize("command", [c for c in COMMAND_OPTIONS if c != "symcheck"])
    def test_seed_is_symcheck_only(self, capsys, command):
        # the other commands sample nothing, so a seed would change no output
        code, out, err = parse_exit(capsys, main, [command, *COMMAND_OPTIONS[command], "--seed", "1"])
        assert code == 2 and out == ""
        assert err.splitlines()[-1] == "cyclofree: error: unrecognized arguments: --seed 1"

    @pytest.mark.parametrize("argv", [[], ["bogus"], ["--help"], ["-h", "sieve"], ["--seed", "1", "sieve"]])
    def test_argv_not_led_by_a_command_gets_the_full_parser(self, capsys, argv):
        assert parse_exit(capsys, main, argv) == parse_exit(capsys, cli.build_parser().parse_args, argv)

    @pytest.mark.parametrize("argv, error", [
        ([], "the following arguments are required: command"),
        (["bogus"], "argument command: invalid choice: 'bogus'"),
    ])
    def test_full_parser_errors_name_the_command_argument(self, capsys, argv, error):
        code, _, err = parse_exit(capsys, main, argv)
        assert code == 2 and err.splitlines()[-1].startswith(f"cyclofree: error: {error}")


def fresh_run(tmp_path, *argv):
    """(exit code, stderr, loaded module names) of one CLI command run in a
    fresh interpreter; with no argv, of a bare ``import cyclofree.cli``."""
    script = (
        "import json, sys\n"
        "from cyclofree.cli import main\n"
        "code = main(sys.argv[1:]) if sys.argv[1:] else 0\n"
        "sys.stdout.write(json.dumps([code, sorted(sys.modules)]))\n"
    )
    args = [*argv, "--out", str(tmp_path / "payload.out")] if argv else []
    done = subprocess.run([sys.executable, "-c", script, *args], capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    code, modules = json.loads(done.stdout)
    return code, done.stderr, set(modules)


class TestImports:
    def test_cli_import_loads_neither_numpy_nor_mpmath(self, tmp_path):
        _, _, modules = fresh_run(tmp_path)
        assert not {"numpy", "mpmath"} & modules

    def test_admissible_loads_neither_mpmath_nor_symmetries(self, tmp_path):
        patch_file = tmp_path / "patch.json"
        patch_file.write_text(patch_to_json(PatchConfig(shape=((0, 0), (0, 1)), fill=0b11), 4, 2))
        code, _, modules = fresh_run(tmp_path, "admissible", "--in", str(patch_file))
        assert code == 0
        assert not {"mpmath", "cyclofree.symmetries", "cyclofree.zeta"} & modules
        # no density is formed, and every prime of Z[i] splits without an equal-degree split
        assert not {"fractions", "cyclofree.gfpoly"} & modules

    def test_symcheck_loads_no_mpmath(self, tmp_path):
        code, _, modules = fresh_run(
            tmp_path, "symcheck", "--n", "4", "--k", "2", "--radius", "5", "--samples", "5"
        )
        assert code == 0 and "cyclofree.symmetries" in modules
        assert not {"mpmath", "cyclofree.zeta", "cyclofree.certificates", "fractions"} & modules

    @pytest.mark.parametrize(
        "argv",
        [
            ("density", "--n", "4", "--k", "2", "--radius", "5", "--prime-bound", "1000"),
            ("sieve", "--n", "4", "--k", "2", "--radius", "5", "--prime-bound", "1000"),
            ("zeta", "--n", "4", "--k", "2", "--prime-bound", "1000"),
            ("entropy", "--n", "4", "--k", "2", "--prime-bound", "1000"),
        ],
        ids=lambda argv: argv[0],
    )
    def test_zeta_commands_load_no_mpmath(self, tmp_path, argv):
        code, _, modules = fresh_run(tmp_path, *argv)
        assert code == 0 and "cyclofree.zeta" in modules
        assert "mpmath" not in modules

    @pytest.mark.parametrize(
        "argv",
        [("zeta", "--n", "4", "--k", "2"), ("entropy", "--n", "5", "--k", "2")],
        ids=lambda argv: argv[0],
    )
    def test_zeta_and_entropy_stay_off_the_lattice_stack(self, tmp_path, argv):
        # The Euler product needs only the splitting shapes of arith.
        code, _, modules = fresh_run(tmp_path, *argv)
        assert code == 0 and "cyclofree.zeta" in modules
        heavy = {"numpy", "cyclofree.cyclotomic", "cyclofree.lattices", "cyclofree.prime_ideals"}
        assert not heavy & modules

    def test_exhausted_aq_search_is_exit_three(self, tmp_path):
        code, err, modules = fresh_run(
            tmp_path, "aq", "--n", "12", "--q", "13", "--ell-bound", "500", "--a-bound", "4"
        )
        assert code == 3
        assert err.startswith("search exhausted: ")
        assert "cyclofree.certificates" in modules
        assert not {"mpmath", "cyclofree.kfree", "cyclofree.symmetries"} & modules

    @pytest.mark.parametrize(
        "argv",
        [
            ("sieve", "--n", "4", "--k", "2", "--radius", "5", "--prime-bound", "1000"),
            ("density", "--n", "4", "--k", "2", "--radius", "5", "--prime-bound", "1000"),
            ("symcheck", "--n", "4", "--k", "2", "--radius", "5", "--samples", "5"),
            ("admissible", "--in", "patch.json"),
            ("zeta", "--n", "4", "--k", "2", "--prime-bound", "1000"),
        ],
        ids=lambda argv: argv[0],
    )
    def test_commands_do_not_load_openssl(self, tmp_path, argv):
        # the payload digest comes from CPython's built-in SHA-256
        patch_file = tmp_path / "patch.json"
        patch_file.write_text(patch_to_json(PatchConfig(shape=((0, 0), (0, 1)), fill=0b11), 4, 2))
        argv = [str(patch_file) if arg == "patch.json" else arg for arg in argv]
        code, _, modules = fresh_run(tmp_path, *argv)
        assert code == 0
        assert "_hashlib" not in modules

    def test_builtin_sha256_matches_hashlib(self):
        assert cli.sha256.__module__ in ("_sha2", "_sha256")
        assert cli.sha256().hexdigest() == hashlib.sha256().hexdigest()
        chunks = list(_point_chunks(sieve_box(5, 2, 10), "csv"))
        assert len(chunks) > 4
        digest = cli.sha256()
        for chunk in chunks:
            digest.update(chunk)
        assert digest.hexdigest() == hashlib.sha256(b"".join(chunks)).hexdigest()

    def test_prime_bound_above_the_limit_is_exit_three(self, tmp_path):
        # Far above the limit, where a byte sieve cannot be allocated, and
        # with the module of the box cap not loaded.
        code, err, modules = fresh_run(tmp_path, "zeta", "--n", "4", "--k", "2", "--prime-bound", str(10**16))
        assert code == 3
        assert err.startswith("resource limit: prime bound ")
        assert not {"cyclofree.kfree", "numpy"} & modules

    def test_determinant_loads_no_numpy(self):
        # the Bareiss determinant sits in arith, off the lattice stack
        script = (
            "import sys\n"
            "from cyclofree.arith import determinant\n"
            "assert determinant([[2, 0, 1], [1, 3, 0], [0, 1, 4]]) == 25\n"
            "sys.exit('numpy' in sys.modules)\n"
        )
        done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert done.returncode == 0, done.stderr

    def test_benchmark_tracer_installs(self):
        # bench/tracer.py wraps library names it looks up by getattr; a
        # renamed or deleted one fails here, not only in a benchmark run.
        root = Path(__file__).resolve().parents[1]
        script = f"import sys; sys.path.insert(0, {str(root / 'bench')!r}); import tracer; tracer.install()"
        done = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(root / "src")},
        )
        assert done.returncode == 0, done.stderr

    def test_exports_are_the_defining_modules_objects(self):
        import importlib

        import cyclofree

        listed = dir(cyclofree)
        for name in cyclofree.__all__:
            value = getattr(cyclofree, name)
            assert value.__module__.startswith("cyclofree."), name
            assert getattr(importlib.import_module(value.__module__), name) is value, name
            assert name in listed
        with pytest.raises(AttributeError):
            cyclofree.no_such_export
