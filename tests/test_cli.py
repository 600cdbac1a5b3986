import argparse
import json

import mpmath as mp
import pytest

from qstarlike import (
    JanowskiParams,
    QContext,
    TruncSeries,
    coeff_bound,
    load_series,
    random_schwarz,
    save_series,
    schwarz_to_member,
)
from qstarlike import cli
from qstarlike.cli import main


def run_cli(capsys, *argv):
    status = main(list(argv))
    out = capsys.readouterr()
    return status, out.out, out.err


def write_series(tmp_path, name, lead, coeffs):
    path = tmp_path / name
    save_series(TruncSeries(lead, coeffs), path)
    return str(path)


class TestQnum:
    def test_value(self, capsys):
        status, out, _ = run_cli(capsys, "qnum", "--n", "3", "--q", "0.5")
        assert status == 0
        assert out.strip() == "1.75"

    def test_bad_q_is_input_error(self, capsys):
        status, _, err = run_cli(capsys, "qnum", "--n", "3", "--q", "1.5")
        assert status == 2
        assert "error" in err


class TestBoundsTable:
    def test_single_point_rows(self, capsys):
        status, out, _ = run_cli(
            capsys,
            "bounds-table",
            "--p", "1", "--q", "0.5", "--mu", "0", "--A", "1", "--B", "-1",
            "--N", "2",
        )
        assert status == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("p,q,mu,A,B,convention,n,coeff_bound")
        assert len(lines) == 3
        # rows reproducible by direct module calls
        n1 = lines[1].split(",")
        assert float(n1[-1]) == pytest.approx(
            coeff_bound(1, QContext(1, 0.5, 0.0), JanowskiParams(1.0, -1.0))
        )
        assert float(lines[2].split(",")[-1]) == pytest.approx(40.0 / 3.0)

    def test_full_grid_size(self, capsys):
        status, out, _ = run_cli(capsys, "bounds-table", "--N", "1")
        assert status == 0
        # 5 q x 3 p x 3 mu x 4 (A,B) + header
        assert len(out.strip().splitlines()) == 181

    def test_byte_identical_reruns(self, capsys):
        args = ("bounds-table", "--N", "3")
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second

    @pytest.mark.parametrize("n", ["0", "-1"])
    def test_nonpositive_order_is_input_error(self, capsys, n):
        status, out, err = run_cli(capsys, "bounds-table", "--N", n)
        assert status == 2
        assert out == "" and err.startswith("error:")

    def test_non_finite_corpus_is_input_error(self, capsys, tmp_path):
        corpus_path = tmp_path / "c.jsonl"
        corpus_path.write_text('{"seed": 1, "w": [[0.5, 0.0]], "coeffs": [[1.0, 0.0], [NaN, 0.0]]}\n')
        status, out, err = run_cli(
            capsys, "bounds-table", "--p", "1", "--q", "0.5", "--mu", "0",
            "--A", "1", "--B", "-1", "--N", "1", "--in", str(corpus_path),
        )
        assert status == 2
        assert out == "" and err.startswith("error:")

    def test_observed_columns_from_corpus(self, capsys, tmp_path):
        corpus_path = tmp_path / "c.jsonl"
        run_cli(
            capsys, "generate", "--p", "1", "--q", "0.5", "--mu", "0",
            "--A", "1", "--B", "-1", "--out", str(corpus_path),
        )
        status, out, _ = run_cli(
            capsys, "bounds-table", "--p", "1", "--q", "0.5", "--mu", "0",
            "--A", "1", "--B", "-1", "--N", "4", "--in", str(corpus_path),
        )
        assert status == 0
        lines = out.strip().splitlines()
        header = lines[0].split(",")
        assert header[-2:] == ["observed", "slack"]
        for line in lines[1:]:
            assert float(line.split(",")[-1]) >= -1e-9


    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_corpus_shorter_than_order_is_input_error(self, capsys, tmp_path, fmt):
        corpus_path = tmp_path / "c.jsonl"
        pinned = ("--p", "1", "--q", "0.5", "--mu", "0", "--A", "1", "--B", "-1")
        run_cli(capsys, "generate", *pinned, "--N", "1", "--out", str(corpus_path))
        status, out, err = run_cli(
            capsys, "bounds-table", *pinned, "--N", "3", "--in", str(corpus_path), "--format", fmt,
        )
        assert status == 2 and out == ""
        assert err.startswith("error:") and "corpus order 1" in err and "--N 3" in err

    def test_overflowing_bound_is_input_error(self, capsys):
        # from n = 166 on the bounds of this point exceed the double range
        status, out, err = run_cli(
            capsys,
            "bounds-table",
            "--N", "300", "--p", "3", "--q", "0.3", "--mu", "0", "--A", "1", "--B", "-1",
        )
        assert status == 2 and out == ""
        assert err.startswith("error:") and "n = 166" in err and "p=3, q=0.3" in err


class TestCsv:
    def test_formatting(self, capsys):
        rows = [{"q": 0.3, "bound": 1.0 / 3.0, "n": 1}]
        cli._emit_table(argparse.Namespace(format="csv", output_path=None), rows)
        text = capsys.readouterr().out
        assert text.splitlines() == ["q,bound,n", "0.3,0.333333333333333,1"]


class TestCheck:
    def test_monomial_passes_all_three(self, capsys, tmp_path):
        path = write_series(tmp_path, "f.json", 1, [1.0])
        status, out, _ = run_cli(
            capsys, "check", "--in", path, "--p", "1", "--q", "0.5", "--mu", "0",
            "--A", "1", "--B", "-1",
        )
        assert status == 0
        payload = json.loads(out)
        assert payload["sufficiency"]["kind"] == "SufficiencyPass"
        assert payload["boundary"]["kind"] == "BoundaryPass"
        assert payload["convolution"]["kind"] == "ConvolutionPass"

    def test_non_member_fails_with_status_one(self, capsys, tmp_path):
        path = write_series(tmp_path, "bad.json", 1, [1.0, 5.0] + [0.0] * 7)
        status, out, _ = run_cli(
            capsys, "check", "--in", path, "--p", "1", "--q", "0.5", "--mu", "0",
            "--A", "1", "--B", "-1",
        )
        assert status == 1
        payload = json.loads(out)
        assert payload["boundary"]["kind"] == "BoundaryFail"
        assert payload["convolution"]["kind"] == "ConvolutionFail"

    def test_sufficiency_fail_alone_is_status_zero(self, capsys, tmp_path):
        # an oracle member the coefficient criterion cannot certify: that
        # criterion is only sufficient, so its Fail does not set the status
        ctx, jp = QContext(1, 0.5, 0.0), JanowskiParams(1.0, -1.0)
        f = schwarz_to_member(random_schwarz(3, 1), ctx, jp, order=8)
        path = str(tmp_path / "f.json")
        save_series(f.series, path)
        status, out, _ = run_cli(
            capsys, "check", "--in", path, "--p", "1", "--q", "0.5", "--mu", "0",
            "--A", "1", "--B", "-1",
        )
        payload = json.loads(out)
        assert payload["sufficiency"]["kind"] == "SufficiencyFail"
        assert payload["boundary"]["kind"] == "BoundaryPass"
        assert payload["convolution"]["kind"] == "ConvolutionPass"
        assert status == 0

    def test_missing_input_is_status_two(self, capsys):
        status, _, err = run_cli(capsys, "check", "--p", "1")
        assert status == 2 and "error" in err

    def test_lead_mismatch_is_status_two(self, capsys, tmp_path):
        path = write_series(tmp_path, "f.json", 2, [1.0])
        status, _, _ = run_cli(capsys, "check", "--in", path, "--p", "1")
        assert status == 2

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_coefficient_is_input_error(self, capsys, tmp_path, bad):
        path = write_series(tmp_path, "f.json", 1, [1.0, complex(0.1, bad)])
        status, out, err = run_cli(capsys, "check", "--in", path, "--p", "1")
        assert status == 2
        assert out == "" and err.startswith("error:")

    def test_overflowing_series_is_input_error(self, capsys, tmp_path):
        # the boundary test's h expansion overflows: no verdict, no NaN margin
        path = write_series(tmp_path, "f.json", 1, [1.0, 0.0, 0.0, 1e20])
        status, out, err = run_cli(capsys, "check", "--in", path, "--p", "1", "--q", "0.5")
        assert status == 2
        assert out == "" and err.startswith("error:") and "witness z = (0.9+0j)" in err

    def test_csv_format(self, capsys, tmp_path):
        path = write_series(tmp_path, "f.json", 1, [1.0])
        status, out, _ = run_cli(
            capsys, "check", "--in", path, "--p", "1", "--format", "csv"
        )
        assert status == 0
        assert out.splitlines()[0] == "test,kind,margin,witness"


class TestGenerate:
    def test_jsonl_deterministic(self, capsys, tmp_path):
        out1 = tmp_path / "c1.jsonl"
        out2 = tmp_path / "c2.jsonl"
        for out in (out1, out2):
            status, _, _ = run_cli(
                capsys, "generate", "--p", "1", "--q", "0.5", "--mu", "0",
                "--seed", "11", "--N", "6", "--out", str(out),
            )
            assert status == 0
        assert out1.read_bytes() == out2.read_bytes()
        lines = out1.read_text().strip().splitlines()
        assert len(lines) == 200
        row = json.loads(lines[0])
        assert set(row) == {"seed", "w", "coeffs"}
        assert len(row["coeffs"]) == 7

    def test_overflowing_member_is_input_error(self, capsys, tmp_path):
        # member coefficients of this point overflow at order 167, and a
        # corpus with non-finite entries is one load_corpus rejects
        dest = tmp_path / "c.jsonl"
        argv = ("generate", "--N", "400", "--p", "3", "--q", "0.3", "--A", "1", "--B", "-1")
        for extra in ((), ("--out", str(dest))):
            status, out, err = run_cli(capsys, *argv, *extra)
            assert status == 2 and out == ""
            assert err.startswith("error:") and "a_(p+167)" in err
        assert not dest.exists()


class TestFsSweep:
    def test_observed_below_bound_everywhere(self, capsys):
        status, out, _ = run_cli(
            capsys, "fs-sweep", "--p", "1", "--q", "0.5", "--mu", "0",
            "--A", "1", "--B", "-1", "--lambda-grid", "-2:2:0.5",
        )
        assert status == 0
        lines = out.strip().splitlines()
        header = lines[0].split(",")
        i_bound, i_obs = header.index("bound"), header.index("observed")
        assert len(lines) == 10  # 9 lambda values + header
        for line in lines[1:]:
            cells = line.split(",")
            assert float(cells[i_obs]) <= float(cells[i_bound]) + 1e-9

    def test_reads_corpus_file(self, capsys, tmp_path):
        corpus_path = tmp_path / "c.jsonl"
        run_cli(
            capsys, "generate", "--p", "1", "--q", "0.5", "--mu", "0",
            "--out", str(corpus_path),
        )
        status, out, _ = run_cli(
            capsys, "fs-sweep", "--p", "1", "--q", "0.5", "--mu", "0",
            "--in", str(corpus_path), "--lambda-grid", "0:1:0.5",
        )
        assert status == 0
        assert len(out.strip().splitlines()) == 4

    def test_corpus_below_order_two_is_input_error(self, capsys, tmp_path):
        corpus_path = tmp_path / "c.jsonl"
        run_cli(capsys, "generate", "--N", "1", "--out", str(corpus_path))
        status, out, err = run_cli(capsys, "fs-sweep", "--in", str(corpus_path))
        assert status == 2 and out == ""
        assert err.startswith("error:") and "order >= 2" in err

    def test_bad_grid_spec(self, capsys):
        status, _, err = run_cli(capsys, "fs-sweep", "--lambda-grid", "nope")
        assert status == 2

    @pytest.mark.parametrize("grid", ["0:1:0", "1:0:1", "0:inf:1", "0:1e300:1e-300"])
    def test_empty_or_unbounded_grid_is_input_error(self, capsys, grid):
        status, out, err = run_cli(capsys, "fs-sweep", "--lambda-grid", grid)
        assert status == 2
        assert out == "" and err.startswith("error:")

    def test_bernardi_sigma_mode(self, capsys):
        status, out, _ = run_cli(
            capsys, "fs-sweep", "--p", "1", "--q", "0.5", "--mu", "0",
            "--eta", "1", "--lambda-grid", "0:1:0.5",
        )
        assert status == 0
        lines = out.strip().splitlines()
        header = lines[0].split(",")
        assert "eta" in header
        i_bound, i_obs = header.index("bound"), header.index("observed")
        for line in lines[1:]:
            cells = line.split(",")
            assert float(cells[i_obs]) <= float(cells[i_bound]) + 1e-9


class TestLimitCompare:
    def test_small_deviation(self, capsys):
        status, out, _ = run_cli(capsys, "limit-compare", "--p", "1", "--mu", "2.5")
        assert status == 0
        payload = json.loads(out)
        assert payload["max_rel_deviation"] < 1e-4
        assert payload["q"] == pytest.approx(1 - 1e-6)

    def test_deviation_matches_mpmath(self, capsys):
        status, out, _ = run_cli(capsys, "limit-compare", "--p", "2", "--mu", "2.5")
        assert status == 0
        # max over n of |Lambda_n - c_n| / c_n, with Lambda_n = prod [mu+j,q]/[j,q]
        # and c_n = prod (mu+j)/j, j = 1 .. n, at 40 digits
        with mp.workdps(40):
            q, mu = mp.mpf(1.0 - 1e-6), mp.mpf(2.5)
            lam = classical = mp.mpf(1)
            reference = mp.mpf(0)
            for j in range(1, 9):
                lam *= (1 - q ** (mu + j)) / (1 - q**j)
                classical *= (mu + j) / j
                reference = max(reference, abs(lam - classical) / classical)
        assert json.loads(out)["max_rel_deviation"] == pytest.approx(float(reference), rel=1e-9)

    def test_overflowing_kernel_is_input_error(self, capsys):
        # Lambda at mu = 1000 and the default q = 1 - 1e-6 passes the double
        # range at n = 308; the deviation used to print as NaN with status 0
        status, out, err = run_cli(capsys, "limit-compare", "--mu", "1000", "--N", "400")
        assert status == 2 and out == ""
        assert err.startswith("error:") and "n = 308" in err

    def test_exactly_zero_at_mu_zero(self, capsys):
        status, out, _ = run_cli(capsys, "limit-compare", "--p", "3", "--mu", "0", "--N", "64")
        assert status == 0
        assert json.loads(out)["max_rel_deviation"] == 0.0


class TestBernardi:
    def test_transform_series(self, capsys, tmp_path):
        path = write_series(tmp_path, "f.json", 1, [1.0, 1.0])
        status, out, _ = run_cli(
            capsys, "bernardi", "--in", path, "--eta", "1", "--p", "1", "--q", "0.5",
        )
        assert status == 0
        obj = json.loads(out)
        assert obj["lead"] == 1
        assert obj["coeffs"][0] == [1.0, 0.0]
        assert obj["coeffs"][1][0] == pytest.approx(1.5 / 1.75)

    def test_output_file_roundtrip(self, capsys, tmp_path):
        path = write_series(tmp_path, "f.json", 1, [1.0, 0.5j])
        out_path = tmp_path / "out.json"
        status, _, _ = run_cli(
            capsys, "bernardi", "--in", path, "--eta", "2", "--p", "1", "--q", "0.5",
            "--out", str(out_path),
        )
        assert status == 0
        g = load_series(out_path)
        assert g.lead == 1

    def test_invalid_eta(self, capsys, tmp_path):
        path = write_series(tmp_path, "f.json", 1, [1.0])
        status, _, _ = run_cli(
            capsys, "bernardi", "--in", path, "--eta", "-1", "--p", "1",
        )
        assert status == 2


class TestReadmeExamples:
    """stdout of README examples on the series z + 0.1 z^2, pinned byte for byte."""

    def test_bernardi(self, capsys, tmp_path):
        path = write_series(tmp_path, "f.json", 1, [1.0, 0.1])
        status, out, _ = run_cli(capsys, "bernardi", "--in", path, "--eta", "1", "--p", "1", "--q", "0.5")
        assert status == 0
        assert out == '{"lead": 1, "coeffs": [[1.0, 0.0], [0.08571428571428572, 0.0]]}\n'

    def test_check(self, capsys, tmp_path):
        path = write_series(tmp_path, "f.json", 1, [1.0, 0.1])
        status, out, _ = run_cli(
            capsys, "check", "--in", path, "--p", "1", "--q", "0.5", "--mu", "0", "--A", "1", "--B", "-1"
        )
        assert status == 0
        assert out == (
            '{"sufficiency": {"kind": "SufficiencyPass", "margin": 1.7, "witness": null}, '
            '"boundary": {"kind": "BoundaryPass", "margin": 0.9698002859885244, "witness": null}, '
            '"convolution": {"kind": "ConvolutionPass", "margin": 0.9049999000000001, "witness": null}}\n'
        )


@pytest.mark.parametrize(
    "argv",
    [
        ("fs-sweep",),
        ("bounds-table", "--p", "1", "--q", "0.5", "--mu", "0", "--A", "1", "--B", "-1"),
    ],
)
def test_empty_corpus_is_input_error(capsys, tmp_path, argv):
    corpus_path = tmp_path / "empty.jsonl"
    corpus_path.write_text("")
    status, out, err = run_cli(capsys, *argv, "--in", str(corpus_path))
    assert status == 2
    assert out == "" and err.startswith("error:")


@pytest.mark.parametrize(
    "argv",
    [
        ("qnum", "--n", "3", "--p", "2"),
        ("bounds-table", "--r", "0.5"),
        ("check", "--N", "4"),
        ("generate", "--format", "json"),
        ("fs-sweep", "--N", "4"),
        ("limit-compare", "--seed", "3"),
        ("bernardi", "--mu", "1"),
    ],
)
def test_flag_the_subcommand_does_not_read_is_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == "" and f"unrecognized arguments: {' '.join(argv[-2:])}" in out.err


def test_internal_error_is_status_three_without_traceback(capsys, monkeypatch):
    def broken(ns):
        """Raise an exception no input error maps to."""
        raise RuntimeError("handler broke")

    monkeypatch.setattr(cli, "_cmd_qnum", broken)
    status, out, err = run_cli(capsys, "qnum", "--n", "3")
    assert status == 3
    assert out == ""
    assert err.splitlines() == ["internal error: RuntimeError: handler broke"]
