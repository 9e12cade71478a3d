import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from quatsurf.cli import build_parser, main


def run_cli(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    return list(csv.DictReader(io.StringIO(text)))


class TestConstructFieldsCommand:
    def test_two_rows(self, capsys):
        code, out, err = run_cli(["construct-fields", "--delta", "-4", "--n", "2"], capsys)
        assert code == 0
        rows = parse_csv(out)
        assert [r["x"] for r in rows] == ["1", "3"]
        assert [r["disc_bound"] for r in rows] == ["20480", "53248"]
        assert all(r["galois"] == "false" for r in rows)
        assert all(r["surface_obstruction"] == "true" for r in rows)
        manifest = json.loads(err)
        assert manifest["certified"] is True
        assert manifest["command"] == "construct-fields"
        # the schema is the row dict's key order, pinned here to the README's
        columns = "i,p,root,t,x,min_poly,poly_disc,disc_bound,bound_over_n8,galois,witness_prime,surface_obstruction,height_bound,length_bound,length_bound_over_n16"
        assert out.splitlines()[0] == columns
        assert manifest["schema"] == columns

    def test_invalid_discriminant_exits_2(self, capsys):
        code, _, err = run_cli(["construct-fields", "--delta", "-5", "--n", "1"], capsys)
        assert code == 2
        assert "fundamental" in err

    def test_verification_failure_exits_3(self, capsys, monkeypatch):
        from quatsurf import cli
        from quatsurf.errors import VerificationError

        def boom(*args, **kwargs):
            raise VerificationError("synthetic")

        monkeypatch.setattr(cli, "construct_fields", boom)
        code, _, err = run_cli(["construct-fields", "--delta", "-4", "--n", "1"], capsys)
        assert code == 3
        assert "verification failure" in err

    def test_search_cap_exhausted_exits_4(self, capsys, monkeypatch):
        from quatsurf import cli
        from quatsurf.errors import SearchCapExceeded

        # a small cap still finds t = 0
        code, _, _ = run_cli(["construct-fields", "--delta", "-4", "--n", "1", "--search-cap", "1"], capsys)
        assert code == 0

        def starved(*args, **kwargs):
            raise SearchCapExceeded("synthetic")

        monkeypatch.setattr(cli, "construct_fields", starved)
        code, _, err = run_cli(["construct-fields", "--delta", "-4", "--n", "1"], capsys)
        assert code == 4
        assert "synthetic" in err

    def test_negative_search_cap_exits_2(self, capsys):
        # the search tries t = 0..cap inclusive, so cap 0 is the smallest usable one
        code, out, err = run_cli(["construct-fields", "--delta", "-4", "--n", "1", "--search-cap", "-1"], capsys)
        assert code == 2
        assert out == ""
        assert "--search-cap" in err
        code, out, _ = run_cli(["construct-fields", "--delta", "-4", "--n", "1", "--search-cap", "0"], capsys)
        assert code == 0
        assert out.startswith("i,p,root,t,")

    def test_json_mode(self, capsys):
        code, out, _ = run_cli(["construct-fields", "--delta", "-4", "--n", "1", "--json"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["manifest"]["certified"] is True
        assert doc["rows"][0]["x"] == "1"
        assert doc["rows"][0]["witness_prime"] == "5"

    def test_out_directory(self, capsys, tmp_path):
        code, out, _ = run_cli(["construct-fields", "--delta", "-4", "--n", "1", "--out", str(tmp_path)], capsys)
        assert code == 0
        assert out == ""
        data = (tmp_path / "construct-fields.csv").read_text()
        assert parse_csv(data)[0]["x"] == "1"
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["flag_delta"] == -4


class TestCensusCommand:
    def test_small_run_structure(self, capsys):
        code, out, _ = run_cli(["census", "--delta", "-4", "--n", "1", "--x", "1e6"], capsys)
        assert code == 0
        rows = parse_csv(out)
        tables = {r["table"] for r in rows}
        assert {"prime_density", "squarefree", "algebra_census"} <= tables
        final_density = [r for r in rows if r["table"] == "prime_density"][-1]
        assert 0.09 <= float(final_density["ratio"]) <= 0.20

    def test_degenerate_small_x_still_csv(self, capsys):
        code, out, _ = run_cli(["census", "--delta", "-4", "--n", "1", "--x", "100"], capsys)
        assert code == 0
        rows = parse_csv(out)
        assert rows, "header plus at least the census row"

    def test_matches_library(self, capsys, predicate_n1):
        code, out, _ = run_cli(["census", "--delta", "-4", "--n", "1", "--x", "1e6"], capsys)
        assert code == 0
        rows = parse_csv(out)
        from quatsurf.census import count_squarefree_over_P

        sf_rows = {int(r["checkpoint"]): int(r["count"]) for r in rows if r["table"] == "squarefree"}
        for checkpoint, count in sf_rows.items():
            assert count == count_squarefree_over_P(predicate_n1, checkpoint)

    def test_fit_row_present_at_1e8(self, capsys):
        code, out, _ = run_cli(["census", "--delta", "-4", "--n", "1", "--x", "1e8"], capsys)
        assert code == 0
        rows = parse_csv(out)
        assert any(r["table"] == "mean_value_fit" for r in rows)

    def test_shards_agree(self, capsys):
        _, out1, _ = run_cli(["census", "--delta", "-4", "--n", "1", "--x", "1e6"], capsys)
        _, out2, _ = run_cli(["census", "--delta", "-4", "--n", "1", "--x", "1e6", "--shards", "2"], capsys)
        assert out1 == out2

    def test_progress_stays_on_diagnostic_stream(self, capsys):
        _, plain_out, _ = run_cli(["census", "--delta", "-4", "--n", "1", "--x", "1e6"], capsys)
        _, noisy_out, noisy_err = run_cli(["census", "--delta", "-4", "--n", "1", "--x", "1e6", "--progress"], capsys)
        assert noisy_out == plain_out  # data stream untouched
        assert "scanned primes to" in noisy_err

    def test_progress_with_shards(self, capsys):
        _, plain_out, _ = run_cli(["census", "--delta", "-4", "--n", "1", "--x", "1e6"], capsys)
        _, noisy_out, noisy_err = run_cli(["census", "--delta", "-4", "--n", "1", "--x", "1e6", "--shards", "2", "--progress"], capsys)
        assert noisy_out == plain_out
        assert "scanned primes to" in noisy_err

    def test_one_scan_per_run(self, capsys, monkeypatch):
        # every table reads one scan of P, also where isqrt(x) < 100 leaves out
        # the density table and the squarefree checkpoints set the bounds
        from quatsurf.census import PrimePredicate

        scans = []
        segment_scan = PrimePredicate._segment_scan

        def spy(pred):
            scans.append(pred)
            return segment_scan(pred)

        monkeypatch.setattr(PrimePredicate, "_segment_scan", spy)
        base = ["census", "--delta", "-4", "--n", "1", "--x"]
        for flags in (["5000", "--checkpoints", "10,30,70"], ["1e6"], ["1e8"]):
            scans.clear()
            code, _, _ = run_cli(base + flags, capsys)
            assert code == 0 and len(scans) == 1, flags
        _, plain_out, _ = run_cli(base + ["5000"], capsys)
        _, noisy_out, noisy_err = run_cli(base + ["5000", "--progress"], capsys)
        assert noisy_out == plain_out
        assert "scanned primes to 70\n" in noisy_err
        assert run_cli(base + ["5000", "--shards", "2"], capsys)[1] == plain_out

    def test_bad_scan_requests_exit_2(self, capsys):
        for extra in (["--x", "1e6", "--shards", "0"], ["--x", "1e20"]):
            code, _, err = run_cli(["census", "--delta", "-4", "--n", "1"] + extra, capsys)
            assert code == 2, extra
            assert err.startswith("error:"), extra


    def test_x_parses_exactly(self):
        parser = build_parser()
        for text, want in (("1e14", 10**14), ("9007199254740993", 2**53 + 1), ("2.5e3", 2500)):
            args = parser.parse_args(["census", "--delta", "-4", "--x", text, "--checkpoints", f"100,{text}"])
            assert args.x == want and args.checkpoints == [100, want], text

    def test_x_1e14_end_to_end(self, capsys):
        # the whole data stream, byte for byte, against the benchmark's stored outputs
        golden = json.loads((Path(__file__).parents[1] / "perfbench" / "reference.json").read_text())["outputs"]
        outs = {}
        for delta in ("-3", "-4", "-8"):
            argv = ["census", "--delta", delta, "--n", "1", "--x", "1e14"]
            code, outs[delta], err = run_cli(argv, capsys)
            assert code == 0
            assert json.loads(err)["scan_bound"] == 10**7
            assert outs[delta] == golden["cli " + " ".join(argv)], delta
        assert "prime_density,10000000,83047,0.133855948953" in outs["-4"].splitlines()

    @pytest.mark.parametrize(
        "flags", [["--x", "1000.5"], ["--x", "1e6", "--checkpoints", "1000,1e4.5"], ["--x", "1e6", "--checkpoints", "1000,10000.5"]]
    )
    def test_non_integer_bounds_exit_2(self, flags, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["census", "--delta", "-4", "--n", "1"] + flags)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: argument" in captured.err


    def test_checkpoints_below_2_exit_2(self, capsys, monkeypatch):
        from quatsurf import cli

        def unreachable(*args, **kwargs):
            raise AssertionError("the checkpoints must be refused before any work")

        monkeypatch.setattr(cli, "construct_fields", unreachable)
        monkeypatch.setattr(cli, "PrimePredicate", unreachable)
        # below 2, and above the scan bound isqrt(--x) = 70 or 223 (with --x 5000 no density table runs at all)
        cases = [("1e6", "1,100,1000"), ("1e6", "0,100"), ("1e6", "-5,100"), ("5000", "100,1000,100000"), ("50000", "100,1000,100000")]
        for x, checkpoints in cases:
            code, out, err = run_cli(["census", "--delta", "-4", "--n", "1", "--x", x, "--checkpoints", checkpoints], capsys)
            assert code == 2, (x, checkpoints)
            assert out == ""
            assert "--checkpoints" in err

    def test_shards_below_1_exit_2(self, capsys, monkeypatch):
        from quatsurf import cli

        def unreachable(*args, **kwargs):
            raise AssertionError("the shard count must be refused before any work")

        monkeypatch.setattr(cli, "construct_fields", unreachable)
        monkeypatch.setattr(cli, "PrimePredicate", unreachable)
        # refused up front at every --x, before the family is built or P scanned
        for x in ("1000", "1e6"):
            for shards in ("0", "-3"):
                code, out, err = run_cli(["census", "--delta", "-4", "--x", x, "--shards", shards], capsys)
                assert code == 2, (x, shards)
                assert out == ""
                assert "--shards" in err

    def test_x_beyond_scan_range_exit_2(self, capsys, monkeypatch):
        from quatsurf import cli
        from quatsurf.census import SCAN_LIMIT

        class Reached(Exception):
            pass

        def unreachable(*args, **kwargs):
            raise Reached

        monkeypatch.setattr(cli, "construct_fields", unreachable)
        monkeypatch.setattr(cli, "PrimePredicate", unreachable)
        # the scan runs to isqrt(--x), so x = SCAN_LIMIT^2 is the first refused
        for x in ("1e19", str(SCAN_LIMIT**2), "1e30"):
            code, out, err = run_cli(["census", "--delta", "-4", "--n", "1", "--x", x], capsys)
            assert code == 2, x
            assert out == ""
            assert "--x" in err
        with pytest.raises(Reached):
            run_cli(["census", "--delta", "-4", "--n", "1", "--x", str(SCAN_LIMIT**2 - 1)], capsys)


class TestSurfacesDemoCommand:
    def test_n_one_values(self, capsys):
        code, out, _ = run_cli(["surfaces-demo", "--n", "1", "--disc-bound", "1e4"], capsys)
        assert code == 0
        rows = parse_csv(out)
        sel = {(r["key"], r["i"]): r["value"] for r in rows if r["table"] == "selection"}
        assert sel[("p", "1")] == "5"
        assert sel[("q", "1")] == "3"
        assert sel[("q", "2")] == "7"
        surf = {r["key"]: r["value"] for r in rows if r["table"] == "surface"}
        assert surf["ram"] == "{7,3}"
        assert surf["coarea_pi_multiple"] == "4/1"
        assert float(surf["coarea"]) == pytest.approx(4 * math.pi, rel=1e-11)
        assert float(surf["length"]) == pytest.approx(1.9248473002384139, rel=1e-11)

    def test_embedding_matrix_diagonal(self, capsys):
        code, out, _ = run_cli(["surfaces-demo", "--n", "3", "--disc-bound", "1e4"], capsys)
        assert code == 0
        rows = parse_csv(out)
        emb = {(int(r["i"]), int(r["j"])): r["value"] for r in rows if r["table"] == "embedding"}
        assert len(emb) == 9
        for (i, j), val in emb.items():
            assert val == ("true" if i == j else "false")

    def test_embedding_certificate_fires(self, capsys, monkeypatch):
        # a selection whose q_1 = 11 splits in Q(sqrt(5)), so b_1 = {7, 11} rejects it
        import dataclasses

        from quatsurf import cli
        from quatsurf.errors import VerificationError

        select = cli.select_q_primes
        monkeypatch.setattr(cli, "select_q_primes", lambda n: dataclasses.replace(select(n), q_primes=[11, 7]))
        with pytest.raises(VerificationError, match=r"embedding matrix wrong at \(1, 1\)"):
            cli._cmd_surfaces_demo(build_parser().parse_args(["surfaces-demo", "--n", "1"]))
        code, out, err = run_cli(["surfaces-demo", "--n", "1"], capsys)
        assert code == 3
        assert out == "" and "embedding matrix wrong at (1, 1)" in err

    def test_zero_rejected(self, capsys):
        code, _, _ = run_cli(["surfaces-demo", "--n", "0"], capsys)
        assert code == 2

    def test_linnik_report(self, capsys):
        code, out, _ = run_cli(["surfaces-demo", "--n", "2", "--disc-bound", "1e4", "--linnik-report"], capsys)
        assert code == 0
        rows = [r for r in parse_csv(out) if r["table"] == "linnik"]
        assert len(rows) == 2

    def test_reference_outputs_end_to_end(self, capsys):
        # every surfaces-demo run the benchmark stores, byte for byte
        golden = json.loads((Path(__file__).parents[1] / "perfbench" / "reference.json").read_text())["outputs"]
        keys = sorted(key for key in golden if key.startswith("cli surfaces-demo --n 4 --disc-bound "))
        assert len(keys) == 10
        for key in keys:
            code, out, _ = run_cli(key.split()[1:], capsys)
            assert code == 0
            assert out == golden[key], key

    def test_disc_bound_guard_exits_2(self, capsys, monkeypatch):
        from quatsurf import cli

        def unreachable(*args, **kwargs):
            raise AssertionError("the bound must be refused before any work")

        monkeypatch.setattr(cli, "select_q_primes", unreachable)
        for bound in ("12345.5", "1e16", "9007199254740993", "inf", "nan", "9999", "0", "-5"):
            code, _, err = run_cli(["surfaces-demo", "--n", "2", "--disc-bound", bound], capsys)
            assert code == 2, bound
            assert "--disc-bound" in err


class TestRecoverCommand:
    def test_reference_outputs_end_to_end(self, capsys):
        # every recover run the benchmark stores, byte for byte
        golden = json.loads((Path(__file__).parents[1] / "perfbench" / "reference.json").read_text())["outputs"]
        keys = sorted(key for key in golden if key.startswith("cli recover "))
        assert len(keys) == 14
        for key in keys:
            code, out, _ = run_cli(key.split()[1:], capsys)
            assert code == 0
            assert out == golden[key], key

    def test_single_pair(self, capsys):
        code, out, _ = run_cli(
            ["recover", "--delta", "-4", "--pairs", "5", "--d-bound", "200", "--p-bound", "100"], capsys
        )
        assert code == 0
        rows = parse_csv(out)
        recovered = [r["value"] for r in rows if r["table"] == "recovered"]
        assert recovered == ["5"]
        report = {r["key"]: r["value"] for r in rows if r["table"] == "report"}
        assert report["containment"] == "true"
        assert report["equality"] == "true"

    def test_starved_bounds_exit_4(self, capsys):
        code, _, err = run_cli(["recover", "--delta", "-4", "--pairs", "5", "--d-bound", "2"], capsys)
        assert code == 4
        assert "bounds too small" in err

    def test_nonsplit_pair_rejected(self, capsys):
        code, _, _ = run_cli(["recover", "--delta", "-4", "--pairs", "3"], capsys)
        assert code == 2

    def test_bounds_parse_exactly(self, capsys):
        parser = build_parser()
        for text, want in (("1e6", 10**6), ("2.5e3", 2500), ("200", 200)):
            args = parser.parse_args(["recover", "--delta", "-4", "--pairs", "5", "--d-bound", text, "--p-bound", text])
            assert args.d_bound == want and args.p_bound == want, text
        for flag in ("--d-bound", "--p-bound"):
            code, out, err = run_cli(["recover", "--delta", "-4", "--pairs", "5", flag, "1000.5"], capsys)
            assert code == 2 and out == "" and f"argument {flag}" in err

    def test_d_bound_guard_exits_2(self, capsys, monkeypatch):
        from quatsurf import cli

        def unreachable(*args, **kwargs):
            raise AssertionError("the bound must be refused before any work")

        monkeypatch.setattr(cli, "recover_ramification", unreachable)
        for bound in ("9007199254740993", "1e30"):
            code, out, err = run_cli(["recover", "--delta", "-4", "--pairs", "5", "--d-bound", bound], capsys)
            assert code == 2 and out == "" and "--d-bound" in err, bound

    def test_nonpositive_bounds_exit_2(self, capsys, monkeypatch):
        from quatsurf import cli

        def unreachable(*args, **kwargs):
            raise AssertionError("the bound must be refused before any work")

        monkeypatch.setattr(cli, "QuadraticField", unreachable)
        for flag in ("--d-bound", "--p-bound"):
            for bound in ("0", "-5", "-1e6"):
                code, out, err = run_cli(["recover", "--delta", "-4", "--pairs", "5", flag, bound], capsys)
                assert code == 2 and out == "" and flag in err, (flag, bound)

    def test_small_positive_bounds_exit_4(self, capsys):
        for flag in ("--d-bound", "--p-bound"):
            code, _, err = run_cli(["recover", "--delta", "-4", "--pairs", "5", flag, "1"], capsys)
            assert code == 4 and "bounds too small" in err, flag

    def test_monotone_in_d_bound(self, capsys):
        sizes = []
        for db in ("100", "200", "400"):
            _, out, _ = run_cli(["recover", "--delta", "-4", "--pairs", "13", "--d-bound", db], capsys)
            sizes.append(len([r for r in parse_csv(out) if r["table"] == "recovered"]))
        assert sizes == sorted(sizes, reverse=True)
        assert all(s >= 1 for s in sizes)


class TestOutputModes:
    @pytest.mark.parametrize(
        "argv",
        [
            ["census", "--delta", "-4", "--n", "1", "--x", "1e6"],
            ["recover", "--delta", "-4", "--pairs", "5", "13", "--d-bound", "2000"],
        ],
    )
    def test_out_files_match_streams(self, argv, capsys, tmp_path):
        # CSV: data on stdout, manifest on stderr; --json: one document on stdout;
        # --out DIR writes the same bytes to files instead
        command = argv[0]
        code, csv_out, csv_err = run_cli(argv, capsys)
        assert code == 0 and csv_out.startswith("table,")
        code, json_out, json_err = run_cli(argv + ["--json"], capsys)
        assert code == 0 and json_err == ""
        assert json.loads(json_out)["manifest"] == json.loads(csv_err)

        code, out, err = run_cli(argv + ["--out", str(tmp_path / "csv")], capsys)
        assert (code, out, err) == (0, "", "")
        files = {f.name: f.read_bytes() for f in (tmp_path / "csv").iterdir()}
        assert files == {f"{command}.csv": csv_out.encode(), "manifest.json": csv_err.encode()}

        code, out, err = run_cli(argv + ["--out", str(tmp_path / "json"), "--json"], capsys)
        assert (code, out, err) == (0, "", "")
        files = {f.name: f.read_bytes() for f in (tmp_path / "json").iterdir()}
        assert files == {f"{command}.json": json_out.encode()}


class TestDeterminism:
    def test_cli_import_leaves_process_pool_unloaded(self):
        # only sharded scans import the process pool, and they do it on demand
        code = "import sys, quatsurf.cli; print(sorted({'multiprocessing', 'concurrent.futures'} & set(sys.modules)))"
        res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
        assert res.stdout.strip() == "[]"

    # importing quatsurf sets OPENBLAS_NUM_THREADS in this process too, so each
    # child starts from an environment without any BLAS thread setting
    _BLAS_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")

    def _child_env(self, **extra):
        env = {k: v for k, v in os.environ.items() if k not in self._BLAS_VARS}
        return dict(env, **extra)

    @pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="needs /proc")
    @pytest.mark.parametrize("stmt", ["import quatsurf.cli", "from quatsurf import geodesics, volumes"])
    def test_import_runs_one_thread(self, stmt):
        # numpy's OpenBLAS would otherwise start one worker per extra CPU; the
        # scalar modules leave numpy unloaded, so an array engine loads it here
        load = "from quatsurf import quadfields; quadfields.count_fundamental_discriminants(10**4)"
        code = f"{stmt}; {load}; import os, sys; print(len(os.listdir('/proc/self/task')), 'numpy' in sys.modules)"
        res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=self._child_env())
        assert res.stdout.strip() == "1 True"

    def test_explicit_blas_threads_win(self):
        code = "import os, quatsurf.cli; print(os.environ['OPENBLAS_NUM_THREADS'])"
        env = self._child_env(OPENBLAS_NUM_THREADS="2")
        res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
        assert res.stdout.strip() == "2"

    def test_sharded_census_forks_cleanly(self):
        # forking a multi-threaded process raises DeprecationWarning on Python >= 3.12;
        # x = 10^13 scans to 3.2e6, four segments, so two shards start a pool
        base = [sys.executable, "-W", "error::DeprecationWarning", "-m", "quatsurf.cli", "census"]
        base += ["--delta", "-4", "--n", "2", "--x", "1e13"]
        runs = [subprocess.run(base + ["--shards", s], capture_output=True, env=self._child_env()) for s in ("2", "1")]
        assert [r.returncode for r in runs] == [0, 0], runs[0].stderr
        assert runs[0].stdout == runs[1].stdout

    def test_byte_identical_runs(self):
        cmd = [sys.executable, "-m", "quatsurf.cli", "surfaces-demo", "--n", "2", "--disc-bound", "1e4"]
        a = subprocess.run(cmd, capture_output=True, check=True)
        b = subprocess.run(cmd, capture_output=True, check=True)
        assert a.stdout == b.stdout
        assert a.stdout.startswith(b"table,key,i,j,value")

    def test_manifest_is_flat_sorted_json(self):
        cmd = [sys.executable, "-m", "quatsurf.cli", "recover", "--delta", "-4", "--pairs", "5"]
        res = subprocess.run(cmd, capture_output=True, check=True)
        manifest = json.loads(res.stderr)
        assert list(manifest) == sorted(manifest)
        assert all(not isinstance(v, (dict, list)) for v in manifest.values())
