import functools
import io
import json
import re
import shlex
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from palinscan import (
    MarkovModel,
    ScoreModel,
    average_rate,
    bohv1_model,
    estimate_model,
    find_palindromes,
    generate_sequence,
    iid_model,
    markov_rate,
    parse_fasta_file,
)
from palinscan import cli, seqio
from palinscan import sim as sim_module
from palinscan.cli import SCAN_REPORT_KEYS, build_parser, main, run
from palinscan.scan import null_window_mean, window_scores
from palinscan.seqio import decode

from conftest import child_env
from oracles import naive_pattern_log_prob


def invoke(*argv):
    """Run the CLI in-process; return (exit_code, stdout_text)."""
    buf = io.StringIO()
    code = run(build_parser().parse_args(list(argv)), out=buf)
    return code, buf.getvalue()


@pytest.fixture(scope="module")
def sample_path(data_dir):
    return str(data_dir / "sample.fa")


@pytest.fixture(scope="module")
def sample_record(sample_path):
    return parse_fasta_file(sample_path)[0]


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args([])
        assert exc.value.code == 2

    def test_bad_multiplier_list(self):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["simulate", "--multipliers", "a,b"])
        assert exc.value.code == 2

    def test_defaults(self):
        parse = build_parser().parse_args
        scan = parse(["scan"])
        assert scan.half_length == 6
        assert scan.window == 1000
        assert scan.score == "pls"
        assert parse(["power"]).alpha == 0.05
        assert parse(["mgf"]).points == 25
        # no --multipliers means the one scenario (1, 1, 1)
        assert parse(["simulate"]).multipliers is None
        _, text = invoke("simulate", "--replicates", "1", "--length", "20000")
        assert text.splitlines()[1].startswith("1\t1\t1\t")

    def test_invalid_alpha_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["power", "--alpha", "1.5"])
        assert exc.value.code == 2

    def test_flags_of_other_subcommands_exit_2(self, capsys):
        for argv in (["mgf", "--replicates", "5"], ["estimate", "--w", "10"],
                     ["scan", "--alpha", "0.1"], ["simulate", "--score", "bws"]):
            with pytest.raises(SystemExit) as exc:
                build_parser().parse_args(argv)
            assert exc.value.code == 2, argv
            assert "unrecognized arguments" in capsys.readouterr().err
        # scan keeps --seed, which it ignores, for callers that pass it
        assert build_parser().parse_args(["scan", "--seed", "11"]).seed == 11

    @pytest.mark.parametrize("argv", [
        ["power", "--w", "0"],
        ["power", "--replicates", "0"],
        ["power", "--nu-fixed", "0"],
        ["power", "--nu-fixed", "1.5"],
        ["mgf", "--points", "1"],
        ["simulate", "--multipliers", "0.5,1,1"],
        ["simulate", "--multipliers", "nan,1,1"],
        ["simulate", "--multipliers", "inf,1,1"],
        ["power", "--multipliers", "1,nan,1"],
        ["scan", "--lambda0", "nan"],
        ["scan", "--lambda0", "inf"],
        ["scan", "--lambda0", "0"],
        ["simulate", "--lambda0-target", "nan"],
        ["power", "--lambda0-target", "inf"],
        ["simulate", "--seed", "-1"],
        ["power", "--seed=-1"],
        ["scan", "--threshold", "nan"],
        ["scan", "--threshold=-inf"],
    ])
    def test_out_of_range_exits_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        flag = argv[1].split("=")[0]
        assert f"argument {flag}:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["scan", "mgf", "power"])
    def test_compat_paper_flag_is_gone(self, command, capsys):
        # the paper's literal reading lives on only as a test oracle
        # (oracles.literal_threshold)
        with pytest.raises(SystemExit) as exc:
            main([command, "--compat-paper"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --compat-paper" in capsys.readouterr().err

    def test_invalid_half_length_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["scan", "--L", "0"])
        assert exc.value.code == 2


class TestEstimate:
    def test_requires_input(self):
        code, _ = invoke("estimate")
        assert code == 1

    def test_tsv_matches_library(self, sample_path, sample_record):
        code, text = invoke("estimate", "--input", sample_path)
        assert code == 0
        lines = text.splitlines()
        assert len(lines) == 2
        header = lines[0].split("\t")
        assert header[:6] == ["id", "length", "dropped", "lambda_avg",
                              "lambda_iid", "lambda_markov"]
        assert len(header) == 6 + 4 + 16
        row = dict(zip(header, lines[1].split("\t")))
        seq = sample_record.seq
        model = estimate_model(seq)
        events = find_palindromes(seq, 6)
        assert row["id"] == sample_record.id
        assert int(row["length"]) == seq.length
        assert float(row["lambda_avg"]) == pytest.approx(
            average_rate(events).value, rel=1e-9)
        assert float(row["lambda_iid"]) == pytest.approx(
            markov_rate(iid_model(model.pi), 6).value, rel=1e-9)
        assert float(row["lambda_markov"]) == pytest.approx(
            markov_rate(model, 6).value, rel=1e-9)
        assert float(row["pi_A"]) == pytest.approx(model.pi[0], rel=1e-9)
        assert float(row["p_TT"]) == pytest.approx(model.trans[3, 3], rel=1e-9)

    def test_json_structure(self, sample_path, sample_record):
        code, text = invoke("estimate", "--input", sample_path, "--json")
        assert code == 0
        assert invoke("estimate", "--input", sample_path, "--json") == (code, text)
        payload = json.loads(text)
        assert len(payload) == 1
        entry = payload[0]
        assert set(entry) == {"id", "length", "dropped", "lambda_avg",
                              "lambda_iid", "lambda_markov", "model"}
        # the model at 12 significant digits rebuilds the fitted one
        assert set(entry["model"]) == {"pi", "trans"}
        fitted = estimate_model(sample_record.seq)
        again = MarkovModel(pi=entry["model"]["pi"], trans=entry["model"]["trans"])
        assert np.abs(again.pi - fitted.pi).max() < 1e-11
        assert np.abs(again.trans - fitted.trans).max() < 1e-11

    def test_iid_rate_is_the_markov_rate_of_the_iid_model(self, sample_path,
                                                          sample_record):
        # estimate and scan --rate-estimator iid state the same value, to the bit
        fitted = estimate_model(sample_record.seq)
        iid = markov_rate(iid_model(fitted.pi), 6).value
        _, text = invoke("estimate", "--input", sample_path, "--json")
        assert json.loads(text)[0]["lambda_iid"] == iid
        _, text = invoke("scan", "--input", sample_path, "--rate-estimator", "iid",
                         "--nu-fixed", "1.0", "--json")
        assert json.loads(text)["lambda0"] == iid

    def test_unestimable_record_exits_1(self, data_dir, capsys):
        # record beta is TTTTAAAA; no subcommand has a pseudocount option,
        # so the message points at the library argument
        code, _ = invoke("estimate", "--input", str(data_dir / "mixed.fa"))
        assert code == 1
        assert capsys.readouterr().err == (
            "palinscan estimate: no transitions out of bases C, G; fit such a "
            "sequence with the library call estimate_model(seq, "
            "pseudocount=p), p > 0\n")

    def test_missing_file_exits_1(self):
        code, _ = invoke("estimate", "--input", "/no/such/file.fa")
        assert code == 1

    def test_cached_accession_prints_like_input(self, sample_path, tmp_path, monkeypatch):
        monkeypatch.setenv("PALINSCAN_CACHE", str(tmp_path))
        shutil.copyfile(sample_path, tmp_path / "SAMPLE1.fasta")
        assert invoke("estimate", "--accession", "SAMPLE1") == invoke(
            "estimate", "--input", sample_path)

    def test_cut_fetch_exits_1(self, local_endpoint, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("PALINSCAN_CACHE", str(tmp_path))
        monkeypatch.setattr(cli, "fetch_sequence",
                            functools.partial(seqio.fetch_sequence, endpoint=local_endpoint))
        code, text = invoke("estimate", "--accession", "SHORT1")
        assert (code, text) == (1, "")
        assert capsys.readouterr().err.startswith(
            f"palinscan estimate: cannot read {local_endpoint}/SHORT1: IncompleteRead(")


class TestScan:
    def test_report_layout(self, sample_path):
        code, text = invoke("scan", "--input", sample_path, "--nu-fixed", "1.0")
        assert code == 0
        lines = text.splitlines()
        assert lines[0] == "\t".join(SCAN_REPORT_KEYS)
        row = dict(zip(lines[0].split("\t"), lines[1].split("\t")))
        assert row["kind"] == "pls"
        assert int(row["w"]) == 1000
        assert int(row["W"]) == 20_000
        assert 0.0 <= float(row["p"]) <= 1.0
        assert float(row["max"]) == pytest.approx(float(row["b"]))

    def test_supercritical_fit_exits_1(self, tmp_path, capsys):
        # an ACGT repeat fits a chain under which every stretch is a
        # palindrome; the refusal says so
        path = tmp_path / "acgt.fa"
        path.write_text(">acgt\n" + "ACGT" * 1250 + "\n")
        code, text = invoke("scan", "--input", str(path))
        assert (code, text) == (1, "")
        assert capsys.readouterr().err == (
            "palinscan scan: quasi transition matrix must be strictly "
            "subcritical, but its spectral radius is 1: the chain makes every "
            "long stretch a palindrome\n")

    def test_lambda0_estimator_choice(self, sample_path, sample_record):
        seq = sample_record.seq
        model = estimate_model(seq)
        expect = {
            "markov": markov_rate(model, 6).value,
            "average": average_rate(find_palindromes(seq, 6)).value,
            "iid": markov_rate(iid_model(model.pi), 6).value,
        }
        for estimator, value in expect.items():
            _, text = invoke("scan", "--input", sample_path, "--nu-fixed", "1.0",
                             "--rate-estimator", estimator)
            row = dict(zip(*[l.split("\t") for l in text.splitlines()]))
            assert float(row["lambda0"]) == pytest.approx(value, rel=1e-9)

    def test_lambda0_override(self, sample_path):
        _, text = invoke("scan", "--input", sample_path, "--nu-fixed", "1.0",
                         "--lambda0", "0.002")
        row = dict(zip(*[l.split("\t") for l in text.splitlines()]))
        assert float(row["lambda0"]) == 0.002

    def test_json_key_order(self, sample_path):
        code, text = invoke("scan", "--input", sample_path, "--nu-fixed", "1.0",
                            "--json")
        assert code == 0
        assert tuple(json.loads(text)) == SCAN_REPORT_KEYS

    def test_threshold_below_mean_degenerates(self, sample_path):
        _, text = invoke("scan", "--input", sample_path, "--threshold", "0.001")
        row = dict(zip(*[l.split("\t") for l in text.splitlines()]))
        assert float(row["p"]) == 1.0
        assert float(row["theta1"]) == 0.0
        assert float(row["nu"]) == 1.0
        assert float(row["lambda1"]) == float(row["lambda0"])

    def test_threshold_just_above_mean_degenerates(self, sample_path, sample_record):
        # the next float above the null window mean lies inside its rounding
        # band, where no tilt exists: p = 1, as at the mean itself
        sm = ScoreModel("pls", estimate_model(sample_record.seq), 6)
        b = np.nextafter(null_window_mean(0.001, sm, 1000), np.inf)
        code, text = invoke("scan", "--input", sample_path, "--lambda0", "0.001",
                            "--threshold", repr(float(b)))
        assert code == 0
        row = dict(zip(*[l.split("\t") for l in text.splitlines()]))
        assert (float(row["p"]), float(row["theta1"])) == (1.0, 0.0)

    @pytest.mark.parametrize("threshold", [(), ("--threshold", "0.001")])
    @pytest.mark.parametrize("window", [20_000, 20_001])  # w = W and w = W + 1
    def test_window_not_shorter_than_sequence_exits_1(self, sample_path, window,
                                                      threshold, capsys):
        code, text = invoke("scan", "--input", sample_path, "--w", str(window), *threshold)
        assert (code, text) == (1, "")
        assert capsys.readouterr().err == (f"palinscan scan: window w={window} must be "
                                           f"shorter than the sequence, W=20000\n")

    def test_monte_carlo_seeded(self, sample_path):
        args = ("scan", "--input", sample_path, "--threshold", "9.0",
                "--seed", "11")
        _, a = invoke(*args)
        _, b = invoke(*args)
        assert a == b

    def test_dump_series(self, sample_path, sample_record, tmp_path):
        out = tmp_path / "series.tsv"
        _, text = invoke("scan", "--input", sample_path, "--nu-fixed", "1.0",
                         "--dump-series", str(out))
        lines = out.read_text().splitlines()
        assert lines[0] == "t\tvalue"
        assert len(lines) == sample_record.seq.length - 1000 + 1 + 1
        series_max = max(float(l.split("\t")[1]) for l in lines[1:])
        row = dict(zip(*[l.split("\t") for l in text.splitlines()]))
        assert series_max == pytest.approx(float(row["max"]), rel=1e-9)

    def test_dump_series_matches_line_by_line(self, tmp_path):
        # the series is written SERIES_CHUNK lines at a time, each distinct
        # sum formatted once: the bytes are those of one formatted line per
        # start, across chunk edges, for runs of repeated sums, both signed
        # zeros (a first score of -0.0 gives -0.0 - 0.0) and sums past 10
        # significant digits
        levels = [1.0, 3.166666666666667, 0.1 + 0.2, 2.5e15, 12345.678901234,
                  7.0000000004, 7.0000000006]
        rng = np.random.default_rng(4)
        total, window = 2 * cli.SERIES_CHUNK + 172, 50
        positions = np.sort(rng.choice(np.arange(100, total), 2000, replace=False))
        scores = [-0.0, 1e-300, *rng.choice(levels, positions.size - 2)]
        series = window_scores([10, 70, *positions[2:]], scores, window, total)
        path = tmp_path / "series.tsv"
        cli._dump_series(str(path), series)
        sums = series.sums(np.arange(total - window + 1))
        assert sums.size == 2 * cli.SERIES_CHUNK + 123
        want = "t\tvalue\n" + "".join(f"{t}\t{v:.10g}\n" for t, v in enumerate(sums))
        assert all(f"\t{v}\n" in want for v in ("-0", "0", "1e-300", "2.5e+15"))
        assert path.read_bytes() == want.encode("ascii")

    def test_dump_series_memory_is_bounded(self, tmp_path, monkeypatch):
        # the starts are summed a chunk at a time, so the peak is set by the
        # chunk: at 2 Mbp one float per start, or per base, takes 4 or 16 MB
        monkeypatch.setattr(cli, "SERIES_CHUNK", 1 << 12)
        rng = np.random.default_rng(5)
        total, window = 2_000_000, 1_500_000
        positions = np.sort(rng.choice(total, 20_000, replace=False))
        series = window_scores(positions, rng.random(positions.size), window, total)
        path = tmp_path / "series.tsv"
        tracemalloc.start()
        try:
            cli._dump_series(str(path), series)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert path.read_bytes().count(b"\n") == total - window + 2
        assert peak < 1_000_000

    def test_dump_events(self, sample_path, sample_record, tmp_path):
        out = tmp_path / "events.tsv"
        invoke("scan", "--input", sample_path, "--nu-fixed", "1.0",
               "--dump-events", str(out))
        lines = out.read_text().splitlines()
        assert lines[0] == "center\thalf_length\tpattern\tpcs\tpls\tbws"
        events = find_palindromes(sample_record.seq, 6)
        model = estimate_model(sample_record.seq)
        assert len(lines) - 1 == len(events) > 0
        # each row carries its event's three scores under the fitted model
        for e, line in zip(events, lines[1:]):
            row = line.split("\t")
            assert row[:3] == [str(e.center), str(e.half_length), str(e.pattern)]
            assert float(row[3]) == 1.0
            assert float(row[4]) == pytest.approx(e.half_length / 6, rel=1e-9)
            want = -naive_pattern_log_prob(e.pattern.bases, model.pi, model.trans)
            assert float(row[5]) == pytest.approx(want, rel=1e-9)

    def test_requires_input(self):
        code, _ = invoke("scan")
        assert code == 1

    def test_more_than_one_record_exits_1(self, data_dir, sample_path, capsys):
        code, _ = invoke("scan", "--input", str(data_dir / "mixed.fa"))
        assert code == 1
        assert "3 records" in capsys.readouterr().err
        code, _ = invoke("scan", "--input", sample_path, "--input", sample_path)
        assert code == 1
        assert "2 records" in capsys.readouterr().err
        # estimate still reports every record
        code, text = invoke("estimate", "--input", sample_path, "--input", sample_path)
        assert code == 0
        assert len(text.splitlines()) == 3


class TestMgf:
    def test_grid_layout(self):
        code, text = invoke("mgf", "--points", "8")
        assert code == 0
        lines = text.splitlines()
        assert lines[0] == "t\tmgf_pls\tmgf_bws\tphi\tphi_prime\tphi_double_prime"
        assert len(lines) == 9
        t = [float(l.split("\t")[0]) for l in lines[1:]]
        assert t[0] == 0.0
        assert all(b > a for a, b in zip(t, t[1:]))
        first = lines[1].split("\t")
        assert float(first[1]) == pytest.approx(1.0, abs=1e-10)
        assert float(first[3]) == pytest.approx(0.0, abs=1e-10)
        assert float(first[4]) > 0.0

    def test_json_rows(self):
        code, text = invoke("mgf", "--points", "5", "--json")
        rows = json.loads(text)
        assert code == 0
        assert len(rows) == 5
        assert set(rows[0]) == {"t", "mgf_pls", "mgf_bws", "phi", "phi_prime",
                                "phi_double_prime"}

    def test_model_from_input(self, sample_path):
        _, default_text = invoke("mgf", "--points", "4")
        _, fitted_text = invoke("mgf", "--points", "4", "--input", sample_path)
        assert default_text != fitted_text

    @pytest.mark.parametrize("command", ["mgf", "simulate", "power"])
    def test_more_than_one_record_exits_1(self, command, data_dir, sample_path, capsys):
        # the model is fitted to one sequence; further records are an error,
        # not silently dropped
        code, text = invoke(command, "--input", sample_path,
                            "--input", str(data_dir / "mixed.fa"))
        assert code == 1
        assert text == ""
        assert "4 records" in capsys.readouterr().err

    def test_cumulants_once_per_grid_point(self, monkeypatch):
        # One cumulants call per kind and grid point gives that kind's MGF
        # column as e^phi, and the selected kind's call the phi columns too.
        # On BoHV-1 (pls t_max 6.94, bws t_max 0.50) every point is inside
        # 0.99 pls t_max, and with the grid up to 0.95 pls t_max only its
        # first 2 points are inside 0.99 bws t_max: 27 calls for --score
        # pls, 50 for --score bws.
        import palinscan.cli as cli_module
        import palinscan.mgf as mgf_module

        calls = []
        kernel = mgf_module.cumulants

        def counted(*args):
            calls.append(args[0].kind)
            return kernel(*args)

        monkeypatch.setattr(mgf_module, "cumulants", counted)
        monkeypatch.setattr(cli_module, "cumulants", counted)
        for score, bws_calls in (("pls", 2), ("bws", 25)):
            calls.clear()
            code, _ = invoke("mgf", "--points", "25", "--score", score)
            assert code == 0
            assert sorted(calls) == ["bws"] * bws_calls + ["pls"] * 25

    def test_bws_grid_in_narrow_domain(self):
        # bws has t_max < 1, so the grid must stay finite and populated
        code, text = invoke("mgf", "--points", "6", "--score", "bws")
        values = [float(l.split("\t")[2]) for l in text.splitlines()[1:]]
        assert code == 0
        assert all(np.isfinite(v) for v in values)


class TestSimulate:
    ARGS = ("simulate", "--replicates", "2", "--length", "20000",
            "--multipliers", "5,5,5", "--seed", "7")

    def test_tsv(self):
        code, text = invoke(*self.ARGS)
        assert code == 0
        lines = text.splitlines()
        assert lines[0] == "a1\ta2\ta3\tlambda_avg\tlambda_markov"
        assert len(lines) == 2
        fields = lines[1].split("\t")
        assert fields[:3] == ["5", "5", "5"]
        assert float(fields[3]) > 0.0

    def test_rerun_byte_identical(self):
        _, a = invoke(*self.ARGS)
        _, b = invoke(*self.ARGS)
        assert a == b

    def test_multiple_scenarios(self):
        code, text = invoke("simulate", "--replicates", "2", "--length", "20000",
                            "--multipliers", "1,1,1", "--multipliers", "10,10,10",
                            "--seed", "7")
        assert code == 0
        assert len(text.splitlines()) == 3

    def test_mixed_segment_counts(self):
        # one multiplier column per segment of the widest scenario; a
        # scenario with fewer segments leaves the rest empty
        code, text = invoke("simulate", "--replicates", "2", "--length", "20000",
                            "--multipliers", "2,3,4,5", "--multipliers", "1,1")
        assert code == 0
        rows = [line.split("\t") for line in text.splitlines()]
        assert rows[0] == ["a1", "a2", "a3", "a4", "lambda_avg", "lambda_markov"]
        assert [len(r) for r in rows] == [6, 6, 6]
        assert rows[1][:4] == ["2", "3", "4", "5"]
        assert rows[2][:4] == ["1", "1", "", ""]
        code, text = invoke("simulate", "--replicates", "2", "--length", "5000",
                            "--multipliers", "2,3")
        assert code == 0
        rows = [line.split("\t") for line in text.splitlines()]
        assert rows[0] == ["a1", "a2", "lambda_avg", "lambda_markov"]
        assert len(rows[1]) == 4

    def test_json(self):
        code, text = invoke(*self.ARGS, "--json")
        payload = json.loads(text)
        assert code == 0
        assert payload[0]["multipliers"] == [5.0, 5.0, 5.0]
        assert payload[0]["replicates"] == 2
        assert payload[0]["lambda_avg"] > 0.0

    def test_one_replicate_has_nan_se_and_no_warning(self):
        # one replicate has no spread: its standard errors are NaN, stated
        # as such rather than left to numpy's warning
        proc = subprocess.run(
            [sys.executable, "-m", "palinscan.cli", "simulate", "--replicates", "1",
             "--length", "20000", "--json"],
            capture_output=True, text=True, timeout=120, env=child_env(),
        )
        assert proc.returncode == 0
        assert proc.stderr == ""
        payload = json.loads(proc.stdout)
        assert '"lambda_avg_se": NaN' in proc.stdout
        assert np.isnan(payload[0]["lambda_avg_se"])
        assert np.isnan(payload[0]["lambda_markov_se"])


    def test_length_too_short_exits_1(self, capsys):
        code, _ = invoke("simulate", "--replicates", "1", "--length", "10")
        assert code == 1
        err = capsys.readouterr().err
        assert "--length 10" in err and "--length 4000 or more" in err
        code, _ = invoke("simulate", "--replicates", "1", "--length", "3999")
        assert code == 1
        code, _ = invoke("simulate", "--replicates", "1", "--length", "4000")
        assert code == 0


class TestPower:
    ARGS = ("power", "--replicates", "2", "--length", "20000",
            "--multipliers", "10,10,10", "--nu-fixed", "1.0", "--seed", "3")

    def test_tsv(self):
        code, text = invoke(*self.ARGS)
        assert code == 0
        lines = text.splitlines()
        assert lines[0] == ("kind\talpha\tmultipliers\testimator\trate"
                            "\tthreshold\tpower1\tpower2\tpower3")
        assert len(lines) == 3
        assert lines[1].startswith("pls\t0.05\t10,10,10\taverage\t")
        assert lines[2].startswith("pls\t0.05\t10,10,10\tmarkov\t")

    def test_mixed_segment_counts(self):
        code, text = invoke("power", "--replicates", "2", "--length", "20000",
                            "--nu-fixed", "1.0",
                            "--multipliers", "2,3", "--multipliers", "1,1,1")
        assert code == 0
        rows = [line.split("\t") for line in text.splitlines()]
        assert rows[0][6:] == ["power1", "power2", "power3"]
        assert [len(r) for r in rows] == [9] * 5
        assert [r[2] for r in rows[1:]] == ["2,3", "2,3", "1,1,1", "1,1,1"]
        assert [r[8] == "" for r in rows[1:]] == [True, True, False, False]

    def test_rerun_byte_identical(self):
        _, a = invoke(*self.ARGS)
        _, b = invoke(*self.ARGS)
        assert a == b

    def test_json(self):
        code, text = invoke(*self.ARGS, "--json")
        payload = json.loads(text)
        assert code == 0
        assert payload[0]["kind"] == "pls"
        assert [r["estimator"] for r in payload[0]["rows"]] == ["average", "markov"]
        assert all(len(r["powers"]) == 3 for r in payload[0]["rows"])


    def test_length_too_short_exits_1(self, capsys):
        code, _ = invoke("power", "--replicates", "1", "--length", "500",
                         "--nu-fixed", "1.0")
        assert code == 1
        err = capsys.readouterr().err
        assert "--length 500" in err and "--length 4000 or more" in err
        # two segments fit on a shorter sequence
        code, _ = invoke("power", "--replicates", "1", "--length", "2999",
                         "--multipliers", "2,2", "--nu-fixed", "1.0")
        assert code == 1
        assert "--length 3000 or more" in capsys.readouterr().err

    @pytest.mark.parametrize("window", [20000, 25000])
    def test_window_not_shorter_than_length_exits_1(self, window, capsys, monkeypatch):
        # refused before any replicate sequence is drawn
        def no_replicates(*args):
            raise AssertionError("a replicate was drawn")

        monkeypatch.setattr(sim_module, "generate_sequence", no_replicates)
        code, text = invoke("power", "--replicates", "2", "--length", "20000",
                            "--w", str(window), "--nu-fixed", "1.0")
        assert (code, text) == (1, "")
        assert capsys.readouterr().err == (f"palinscan power: window w={window} must be "
                                           f"shorter than the sequence, W=20000\n")


class TestPinnedOutput:
    """Seeded simulate and power TSV, and scan reports and scored events on
    tests/data/sample.fa, at 10 significant digits (JSON at full precision),
    so a change to how sequences are drawn or scored must leave them exactly
    as they are.
    The sequences, rates and powers were recorded before the byte-coded
    sampler and array scoring replaced the per-base step tables and
    per-event scoring. The thresholds were recorded again when the
    inversion began to stop on |p / alpha - 1| <= 1e-7 instead of
    |p - alpha| <= 1e-6, which moved them in their last digits (by up to
    1.3e-6 of their value) and left every power as it was, and again when
    the search moved from the threshold to the tilt theta1 (by up to 6.7e-9).
    The pls scan's JSON theta1, lambda1 and nu moved in their last digits
    (theta1 by 3.9e-14) when solve_tilt's Newton stop became relative.
    The pls scan's JSON nu moved in its last digit (by 3e-16) when the MGF
    at the quadrature nodes began to solve y (I - Q) = v Q^n instead of
    multiplying by an inverse.
    The mgf grids were recorded while every scalar MGF argument already ran
    on the kernel's block products, and their pls values (mgf_pls in both
    grids, phi and its derivatives in the pls grid) again when pls became
    a rational function of e^(z/h) (by up to 2.4e-14 of their value).
    The pls thresholds of power, and the pls scan's JSON theta1, lambda1
    and nu, moved in their last digits then too (by up to 6.7e-16).
    They moved again when pls cumulants became log-derivatives of N(s)
    and D(s) (grid values by up to 7.1e-15, the rest by up to 4.5e-16),
    and both grids' MGF columns when score_mgf became e^phi of cumulants
    (by up to 7.8e-16); the bws phi columns did not move.
    The bws grid, which runs up to a fixed share of t_max, moved when
    mgf_domain began its Newton steps on log rho at 1/2: t_max moved by
    1 ulp, so 7 of the grid's 8 nonzero t by 1 ulp, its mgf_pls column at
    two points by up to 2.2e-16, and the bws columns at the third point by
    up to 2.8e-15 of their value.
    One power threshold (pls, markov, multipliers 10) moved by 1 ulp when
    the threshold search's scalar arithmetic moved from numpy to math,
    whose exp rounds differently in the last bit at some arguments.
    The estimate tables, the simulate and power JSON, the per-replicate
    threshold table and the window series were recorded while sim,
    palindrome and markov still rendered their own tables.
    The estimate JSON's lambda_iid moved by one ulp (0.0007427154153629537
    to 0.000742715415362954) when the iid rate became markov_rate of
    iid_model(pi): the matrix product pi T^(h-1) c rounds differently from
    gamma ** h. Its 10-digit TSV cell did not move.
    """

    ARGS = ("--replicates", "4", "--length", "20000", "--seed", "3")

    ESTIMATE_HEADER = (
        "id\tlength\tdropped\tlambda_avg\tlambda_iid\tlambda_markov"
        "\tpi_A\tpi_C\tpi_G\tpi_T\tp_AA\tp_AC\tp_AG\tp_AT\tp_CA\tp_CC\tp_CG"
        "\tp_CT\tp_GA\tp_GC\tp_GG\tp_GT\tp_TA\tp_TC\tp_TG\tp_TT")

    def test_estimate(self, sample_path):
        assert invoke("estimate", "--input", sample_path) == (0, (
            f"{self.ESTIMATE_HEADER}\n"
            "sample-20k synthetic first-order sequence\t20000\t0\t0.00135"
            "\t0.0007427154154\t0.001130395015\t0.1334\t0.3619\t0.36385\t0.14085"
            "\t0.178035982\t0.3268365817\t0.3523238381\t0.1428035982"
            "\t0.130717148\t0.2986043941\t0.4309796877\t0.1396987702"
            "\t0.1279373368\t0.4587055105\t0.2984746461\t0.1148825065"
            "\t0.1121760738\t0.3077742279\t0.3709620163\t0.2090876819\n"))
        expected = [{
            "id": "sample-20k synthetic first-order sequence",
            "length": 20000, "dropped": 0, "lambda_avg": 0.00135,
            "lambda_iid": 0.000742715415362954,
            "lambda_markov": 0.001130395014503999,
            "model": {
                "pi": [0.1334, 0.3619, 0.36385, 0.14085],
                "trans": [
                    [0.178035982009, 0.326836581709, 0.352323838081, 0.142803598201],
                    [0.130717147989, 0.298604394086, 0.430979687716, 0.139698770209],
                    [0.127937336815, 0.458705510513, 0.298474646145, 0.114882506527],
                    [0.112176073837, 0.307774227902, 0.370962016329, 0.209087681931],
                ],
            },
        }]
        assert invoke("estimate", "--input", sample_path, "--json") == (
            0, json.dumps(expected, indent=2) + "\n")

    @pytest.mark.parametrize("fmt", [(), ("--json",)])
    def test_estimate_unestimable_writes_nothing(self, data_dir, fmt):
        # record beta of mixed.fa cannot be fitted; no row of the records
        # before it reaches stdout
        assert invoke("estimate", "--input", str(data_dir / "mixed.fa"), *fmt) == (1, "")

    def test_simulate_json(self):
        code, text = invoke("simulate", *self.ARGS, "--json",
                            "--multipliers", "1,1,1", "--multipliers", "10,10,10")
        assert code == 0
        expected = [
            {"multipliers": [1.0, 1.0, 1.0], "replicates": 4,
             "lambda_avg": 0.0015375, "lambda_avg_se": 7.180703308172532e-05,
             "lambda_markov": 0.0010943556522432065,
             "lambda_markov_se": 1.900103050432758e-05},
            {"multipliers": [10.0, 10.0, 10.0], "replicates": 4,
             "lambda_avg": 0.0030749999999999996,
             "lambda_avg_se": 0.00016894279110594407,
             "lambda_markov": 0.001144568497760454,
             "lambda_markov_se": 2.3635152601722142e-05},
        ]
        assert text == json.dumps(expected, indent=2) + "\n"

    def test_power_json(self):
        code, text = invoke("power", *self.ARGS, "--nu-fixed", "1.0", "--json",
                            "--multipliers", "10,10,10", "--multipliers", "3,3,3")
        assert code == 0

        def row(estimator, rate, threshold, powers):
            return {"estimator": estimator, "rate": rate, "threshold": threshold,
                    "powers": powers}

        expected = [
            {"kind": "pls", "alpha": 0.05, "multipliers": [10.0, 10.0, 10.0],
             "replicates": 4, "rows": [
                 row("average", 0.0030749999999999996, 13.414496124976159,
                     [0.5, 0.25, 1.0]),
                 row("markov", 0.001144568497760454, 8.150247543567883,
                     [0.75, 0.75, 1.0])]},
            {"kind": "pls", "alpha": 0.05, "multipliers": [3.0, 3.0, 3.0],
             "replicates": 4, "rows": [
                 row("average", 0.0018124999999999999, 10.168368058543363,
                     [0.25, 0.0, 0.0]),
                 row("markov", 0.0011034909379832119, 8.01418540153679,
                     [0.25, 0.25, 0.5])]},
        ]
        assert text == json.dumps(expected, indent=2) + "\n"

    def test_power_per_replicate_thresholds(self):
        code, text = invoke("power", *self.ARGS, "--nu-fixed", "1.0",
                            "--per-replicate-thresholds",
                            "--multipliers", "10,10,10", "--multipliers", "3,3,3")
        assert code == 0
        assert text == (
            "kind\talpha\tmultipliers\testimator\trate\tthreshold"
            "\tpower1\tpower2\tpower3\n"
            "pls\t0.05\t10,10,10\taverage\t0.003075\t13.40492473"
            "\t0.7500\t0.2500\t1.0000\n"
            "pls\t0.05\t10,10,10\tmarkov\t0.001144568498\t8.149376025"
            "\t0.7500\t0.7500\t1.0000\n"
            "pls\t0.05\t3,3,3\taverage\t0.0018125\t10.15601455"
            "\t0.2500\t0.0000\t0.0000\n"
            "pls\t0.05\t3,3,3\tmarkov\t0.001103490938\t8.013382348"
            "\t0.2500\t0.2500\t0.5000\n"
        )

    def test_dump_series(self, sample_path, tmp_path):
        out = tmp_path / "series.tsv"
        code, _ = invoke("scan", "--input", sample_path, "--dump-series", str(out))
        assert code == 0
        text = out.read_text()
        lines = text.splitlines()
        assert text.endswith("\n")
        assert len(lines) == 19_002
        assert lines[:2] == ["t\tvalue", "0\t3.166666667"]
        assert lines[-1] == "19000\t3"

    def test_simulate(self):
        code, text = invoke("simulate", *self.ARGS,
                            "--multipliers", "1,1,1", "--multipliers", "10,10,10")
        assert code == 0
        assert text == (
            "a1\ta2\ta3\tlambda_avg\tlambda_markov\n"
            "1\t1\t1\t0.0015375\t0.001094355652\n"
            "10\t10\t10\t0.003075\t0.001144568498\n"
        )

    @pytest.mark.parametrize("kind,lines", [
        ("pls", [
            "10,10,10\taverage\t0.003075\t13.41449612\t0.5000\t0.2500\t1.0000",
            "10,10,10\tmarkov\t0.001144568498\t8.150247544\t0.7500\t0.7500\t1.0000",
            "3,3,3\taverage\t0.0018125\t10.16836806\t0.2500\t0.0000\t0.0000",
            "3,3,3\tmarkov\t0.001103490938\t8.014185402\t0.2500\t0.2500\t0.5000",
        ]),
        ("bws", [
            "10,10,10\taverage\t0.003075\t173.3094665\t0.7500\t0.2500\t1.0000",
            "10,10,10\tmarkov\t0.001144568498\t105.5630659\t0.7500\t0.7500\t1.0000",
            "3,3,3\taverage\t0.0018125\t131.5140498\t0.0000\t0.0000\t0.0000",
            "3,3,3\tmarkov\t0.001103490938\t103.8146289\t0.2500\t0.2500\t0.2500",
        ]),
    ])
    def test_power(self, kind, lines):
        code, text = invoke("power", "--score", kind, *self.ARGS, "--nu-fixed", "1.0",
                            "--multipliers", "10,10,10", "--multipliers", "3,3,3")
        assert code == 0
        header = ("kind\talpha\tmultipliers\testimator\trate\tthreshold"
                  "\tpower1\tpower2\tpower3")
        assert text == "\n".join([header, *(f"{kind}\t0.05\t{x}" for x in lines)]) + "\n"

    MGF_COLUMNS = ("t", "mgf_pls", "mgf_bws", "phi", "phi_prime", "phi_double_prime")

    @pytest.mark.parametrize("kind,rows", [
        ("pls", [
            (0.0, 1.0000000000000002, 1.0000000000000002,
             2.2204460492503128e-16, 1.0764483215129221, 0.018585729130471747),
            (0.8243053105174669, 2.445490843533686, np.nan,
             0.8942458567799549, 1.094060641832721, 0.024524173040884105),
            (1.6486106210349338, 6.081932263287988, np.nan,
             1.8053224519501392, 1.1176948382194214, 0.03346787455226117),
            (2.472915931552401, 15.478298651104195, np.nan,
             2.7394389558620267, 1.15069991179079, 0.04782710596652957),
            (3.2972212420698677, 40.716997016536084, np.nan,
             3.7066456223847015, 1.1994524857264783, 0.07302336156311787),
            (4.121526552587334, 112.71083783953874, np.nan,
             4.724825581812897, 1.2777815048498264, 0.12345946182353273),
            (4.945831863104802, 340.61965555441077, np.nan,
             5.830766475178926, 1.4223585469539421, 0.24877980086033144),
            (5.770137173622269, 1239.176174995538, np.nan,
             7.122202062800612, 1.7730695518042046, 0.7264813945405614),
            (6.594442484139735, 8916.500394745462, np.nan,
             9.095658816163914, 3.7986840789623315, 8.299079683290485),
        ]),
        ("bws", [
            (0.0, 1.0000000000000002, 1.0000000000000002,
             2.2204460492503128e-16, 13.994176328242137, 6.943285520841101),
            (0.05940066353550363, 1.0660654724728873, 2.3262967576366633,
             0.8442776287773348, 14.4462706377186, 8.351734394293032),
            (0.11880132707100725, 1.1365715603669801, 5.57443515079153,
             1.7181909939694706, 14.997698165026359, 10.339142923997969),
            (0.17820199060651087, 1.211823257917966, 13.858280494357935,
             2.6288829236092366, 15.694775998258638, 13.363783318617777),
            (0.2376026541420145, 1.2921470811382079, 36.1369978851726,
             3.587317212681357, 16.625466386966416, 18.463180133524645),
            (0.29700331767751814, 1.377892638522202, 100.71024865012171,
             4.612247568628525, 17.98075121791111, 28.40413732309662),
            (0.35640398121302175, 1.4694343212543415, 311.458298917113,
             5.741265457410696, 20.26820044792435, 52.74017467192499),
            (0.4158046447485254, 1.5671731224822436, 1179.4677209405054,
             7.0728185317420165, 25.42731815586787, 144.9035518577332),
            (0.475205308284029, 1.6715385960315063, 8991.512543721483,
             9.10403636066867, 53.838255796157505, 1603.3105145143181),
        ]),
    ])
    def test_mgf(self, kind, rows):
        code, text = invoke("mgf", "--json", "--points", "9", "--score", kind)
        assert code == 0
        expected = [dict(zip(self.MGF_COLUMNS, row)) for row in rows]
        assert text == json.dumps(expected, indent=2) + "\n"

    SCAN_HEADER = "w\tW\tlambda0\tkind\tb\ttheta1\tlambda1\tnu\tnu_se\tp\targmax\tmax"

    @pytest.mark.parametrize("kind,row,report", [
        ("pcs", "1000\t20000\t0.001130395015\tpcs\t3\t0.9760451467\t0.003"
                "\t0.9990659558\t0\t0.9413504651\t0\t3",
         dict(b=3.0, theta1=0.9760451466718211, lambda1=0.0029999999999999996,
              nu=0.9990659557569278, p=0.9413504651475082, argmax=0, max=3.0)),
        ("pls", "1000\t20000\t0.001130395015\tpls\t3.333333333\t0.9101248846"
                "\t0.003038637189\t0.9723776886\t0\t0.999999987\t17658\t3.333333333",
         dict(b=3.333333333333332, theta1=0.9101248845980785,
              lambda1=0.003038637189032655, nu=0.9723776885687391,
              p=0.999999986950745, argmax=17658, max=3.333333333333332)),
        ("bws", "1000\t20000\t0.001130395015\tbws\t45.47454101\t0.07195156512"
                "\t0.003139084756\t0.6503443838\t0\t0.9996312499\t18975\t45.47454101",
         dict(b=45.47454100523089, theta1=0.07195156511972377,
              lambda1=0.003139084755987093, nu=0.6503443837830432,
              p=0.9996312498910287, argmax=18975, max=45.47454100523089)),
    ])
    def test_scan(self, sample_path, kind, row, report):
        code, text = invoke("scan", "--input", sample_path, "--score", kind)
        assert code == 0
        assert text == f"{self.SCAN_HEADER}\n{row}\n"
        code, text = invoke("scan", "--input", sample_path, "--score", kind, "--json")
        assert code == 0
        full = {"w": 1000, "W": 20000, "lambda0": 0.001130395014503999,
                "kind": kind, **report, "nu_se": 0.0}
        expected = {k: full[k] for k in SCAN_REPORT_KEYS}
        assert text == json.dumps(expected, indent=2) + "\n"

    def test_dump_events(self, sample_path, tmp_path):
        out = tmp_path / "events.tsv"
        code, _ = invoke("scan", "--input", sample_path, "--dump-events", str(out))
        assert code == 0
        assert out.read_text() == (
            "center\thalf_length\tpattern\tpcs\tpls\tbws\n"
            "456\t6\tGCGCCGCGGCGC\t1\t1\t11.06429638\n"
            "687\t7\tTCGCGCGCGCGCGA\t1\t1.166666667\t14.47006528\n"
            "947\t6\tGCCGCATGCGGC\t1\t1\t13.57422098\n"
            "2827\t6\tGCCTGGCCAGGC\t1\t1\t14.59437776\n"
            "3025\t6\tAGGCCGCGGCCT\t1\t1\t14.22444641\n"
            "4103\t6\tCCGCCCGGGCGG\t1\t1\t12.75351435\n"
            "4307\t6\tGCGGCGCGCCGC\t1\t1\t11.06429638\n"
            "4851\t6\tGGGCAGCTGCCC\t1\t1\t14.59437776\n"
            "6037\t6\tGCCGCCGGCGGC\t1\t1\t11.86096116\n"
            "6365\t7\tGCGCGGCGCCGCGC\t1\t1.166666667\t12.68533756\n"
            "7418\t6\tGGCGGCGCCGCC\t1\t1\t11.86096116\n"
            "8086\t6\tGCCGGGCCCGGC\t1\t1\t12.65762594\n"
            "8763\t6\tGCCGCGCGCGGC\t1\t1\t11.06429638\n"
            "10262\t7\tCGCCCGCGCGGGCG\t1\t1.166666667\t13.57789075\n"
            "10610\t6\tGCCGTGCACGGC\t1\t1\t14.13072942\n"
            "11469\t7\tACGGGGGCCCCCGT\t1\t1.166666667\t17.77183361\n"
            "12029\t6\tGGAGCGCGCTCC\t1\t1\t14.06828884\n"
            "12602\t7\tTGCGCCGCGGCGCA\t1\t1.166666667\t14.9961542\n"
            "15628\t7\tGCGCCGGCCGGCGC\t1\t1.166666667\t13.48200234\n"
            "16894\t6\tCGCGGCGCCGCG\t1\t1\t11.16018479\n"
            "17549\t6\tCCGCGCGCGCGG\t1\t1\t11.16018479\n"
            "18092\t6\tCGCGCCGGCGCG\t1\t1\t11.16018479\n"
            "18097\t6\tCGGCGCGCGCCG\t1\t1\t11.16018479\n"
            "18658\t8\tCCCGCCGCGCGGCGGG\t1\t1.333333333\t15.99559672\n"
            "19305\t6\tGCGGGCGCCCGC\t1\t1\t11.86096116\n"
            "19766\t6\tGTCTCCGGAGAC\t1\t1\t17.40529775\n"
            "19975\t6\tAGCCGATCGGCT\t1\t1\t16.2082821\n"
        )


    def test_multi_block_chain(self, tmp_path):
        # a 300 kbp chain searched in two blocks, written with CRLF line
        # ends, every seventh line lower-case and three NN runs; recorded
        # before parsing and the depth test went block by block
        seq = generate_sequence(bohv1_model(), 300_000, np.random.default_rng(17))
        lines = [decode(seq.bases[i : i + 70]) for i in range(0, seq.length, 70)]
        for i in range(0, len(lines), 7):
            lines[i] = lines[i].lower()
        for i in (100, 2000, 4000):
            lines[i] = lines[i][:30] + "NN" + lines[i][30:]
        path = tmp_path / "chain.fa"
        path.write_bytes(("\r\n".join([">chain 300 kbp", *lines]) + "\r\n").encode("ascii"))
        head = '{\n  "w": 1000,\n  "W": 300000,\n  "lambda0": 0.0010827643734766682,\n'
        assert invoke("scan", "--input", str(path), "--score", "pls", "--json") == (0, (
            head + '  "kind": "pls",\n  "b": 6.6666666666667425,\n'
            '  "theta1": 1.562675583710406,\n  "lambda1": 0.005981142869903548,\n'
            '  "nu": 0.9398650691995102,\n  "nu_se": 0.0,\n  "p": 0.996409130281901,\n'
            '  "argmax": 224235,\n  "max": 6.6666666666667425\n}\n'))
        assert invoke("scan", "--input", str(path), "--score", "bws", "--json") == (0, (
            head + '  "kind": "bws",\n  "b": 87.60956650636672,\n'
            '  "theta1": 0.11645975015334359,\n  "lambda1": 0.00584274848714312,\n'
            '  "nu": 0.5031733085673111,\n  "nu_se": 0.0,\n  "p": 0.9122884448614742,\n'
            '  "argmax": 224235,\n  "max": 87.60956650636672\n}\n'))
        assert invoke("estimate", "--input", str(path)) == (0, (
            "id\tlength\tdropped\tlambda_avg\tlambda_iid\tlambda_markov"
            "\tpi_A\tpi_C\tpi_G\tpi_T\tp_AA\tp_AC\tp_AG\tp_AT\tp_CA\tp_CC\tp_CG"
            "\tp_CT\tp_GA\tp_GC\tp_GG\tp_GT\tp_TA\tp_TC\tp_TG\tp_TT\n"
            "chain 300 kbp\t300000\t6\t0.001153333333\t0.0007320378494\t0.001082764373"
            "\t0.1359333333\t0.35991\t0.3642\t0.1399566667\t0.1858018637\t0.3319519372"
            "\t0.3526728789\t0.1295733203\t0.1270039732\t0.2936011781\t0.4336084021"
            "\t0.1457864466\t0.1342681152\t0.4504251366\t0.2995542701\t0.1157524781"
            "\t0.1147974373\t0.3220520637\t0.3651130112\t0.1980374878\n"))

class TestReadme:
    def test_command_line_examples_parse(self):
        # every example in README's "Command line" block must stay valid
        text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = text.split("## Command line", 1)[1]
        block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
        lines = [l.split("#", 1)[0] for l in block.splitlines()
                 if l.startswith("palinscan ")]
        assert len(lines) >= 5
        for line in lines:
            build_parser().parse_args(shlex.split(line)[1:])

    def test_library_tour_runs(self, tmp_path):
        # README's "Library tour" block must run as printed
        root = Path(__file__).resolve().parents[1]
        section = (root / "README.md").read_text().split("## Library tour", 1)[1]
        block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
        script = tmp_path / "tour.py"
        script.write_text(block)
        proc = subprocess.run([sys.executable, str(script)], capture_output=True,
                              text=True, timeout=300, env=child_env())
        assert proc.returncode == 0, proc.stderr


class TestConsoleScript:
    def test_entry_point(self, sample_path):
        proc = subprocess.run(
            [sys.executable, "-m", "palinscan.cli", "estimate",
             "--input", sample_path],
            capture_output=True, text=True, timeout=120, env=child_env(),
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith("id\tlength\tdropped")

    def test_module_error_status(self):
        proc = subprocess.run(
            [sys.executable, "-m", "palinscan.cli", "scan"],
            capture_output=True, text=True, timeout=120, env=child_env(),
        )
        assert proc.returncode == 1
        assert "palinscan scan:" in proc.stderr
