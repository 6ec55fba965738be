import io
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from palinscan import (
    ScoreModel,
    average_rate,
    estimate_model,
    find_palindromes,
    iid_rate,
    markov_rate,
    p_value,
    parse_fasta_file,
)
from palinscan.cli import SCAN_REPORT_KEYS, build_parser, main, run


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
    ])
    def test_out_of_range_exits_2(self, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2

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
            iid_rate(model.pi, 6).value, rel=1e-9)
        assert float(row["lambda_markov"]) == pytest.approx(
            markov_rate(model, 6).value, rel=1e-9)
        assert float(row["pi_A"]) == pytest.approx(model.pi[0], rel=1e-9)
        assert float(row["p_TT"]) == pytest.approx(model.trans[3, 3], rel=1e-9)

    def test_json_structure(self, sample_path):
        code, text = invoke("estimate", "--input", sample_path, "--json")
        assert code == 0
        payload = json.loads(text)
        assert len(payload) == 1
        entry = payload[0]
        assert set(entry) == {"id", "length", "dropped", "lambda_avg",
                              "lambda_iid", "lambda_markov", "model"}
        assert len(entry["model"]["trans"]) == 4

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

    def test_lambda0_estimator_choice(self, sample_path, sample_record):
        seq = sample_record.seq
        model = estimate_model(seq)
        expect = {
            "markov": markov_rate(model, 6).value,
            "average": average_rate(find_palindromes(seq, 6)).value,
            "iid": iid_rate(model.pi, 6).value,
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

    def test_compat_changes_p(self, sample_path):
        args = ("scan", "--input", sample_path, "--nu-fixed", "1.0",
                "--threshold", "9.0")
        _, plain = invoke(*args)
        _, compat = invoke(*args, "--compat-paper")
        p_plain = float(dict(zip(*[l.split("\t") for l in plain.splitlines()]))["p"])
        p_compat = float(dict(zip(*[l.split("\t") for l in compat.splitlines()]))["p"])
        assert p_plain != p_compat

    def test_compat_threshold_below_window_mean(self, sample_path, sample_record):
        # --compat-paper centres the tilt on lambda0 * mu0, not window *
        # lambda0 * mu0, so a threshold between the two gets its p-value
        model = estimate_model(sample_record.seq)
        lambda0 = markov_rate(model, 6).value
        sm = ScoreModel("pls", model, 6, compat_paper=True)
        b = 0.5 * 1000 * lambda0 * sm.null_cumulants[1]
        _, text = invoke("scan", "--input", sample_path, "--nu-fixed", "1.0",
                         "--threshold", repr(b), "--compat-paper")
        row = dict(zip(*[l.split("\t") for l in text.splitlines()]))
        rep = p_value(b, 1000, sample_record.seq.length, lambda0, sm, nu_fixed=1.0)
        assert rep.tilt.theta1 > 0.0
        assert float(row["theta1"]) == pytest.approx(rep.tilt.theta1, rel=1e-9)
        assert float(row["p"]) == pytest.approx(rep.p, rel=1e-9)

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

    def test_dump_events(self, sample_path, sample_record, tmp_path):
        out = tmp_path / "events.tsv"
        invoke("scan", "--input", sample_path, "--nu-fixed", "1.0",
               "--dump-events", str(out))
        lines = out.read_text().splitlines()
        assert lines[0] == "center\thalf_length\tpattern\tpcs\tpls\tbws"
        assert len(lines) - 1 == len(find_palindromes(sample_record.seq, 6))

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
        # phi, phi' and phi'' of a grid point come from one cumulants call
        import palinscan.cli as cli_module
        import palinscan.mgf as mgf_module

        calls = []
        kernel = mgf_module.cumulants

        def counted(*args):
            calls.append(args[1])
            return kernel(*args)

        monkeypatch.setattr(mgf_module, "cumulants", counted)
        monkeypatch.setattr(cli_module, "cumulants", counted, raising=False)
        code, _ = invoke("mgf", "--points", "25", "--score", "pls")
        assert code == 0
        assert len(calls) == 25

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

    def test_json(self):
        code, text = invoke(*self.ARGS, "--json")
        payload = json.loads(text)
        assert code == 0
        assert payload[0]["multipliers"] == [5.0, 5.0, 5.0]
        assert payload[0]["replicates"] == 2
        assert payload[0]["lambda_avg"] > 0.0


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
        assert lines[1].split("\t")[3] == "average"
        assert lines[2].split("\t")[3] == "markov"

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
    1.3e-6 of their value) and left every power as it was.
    """

    ARGS = ("--replicates", "4", "--length", "20000", "--seed", "3")

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
            "10,10,10\taverage\t0.003075\t13.41449605\t0.5000\t0.2500\t1.0000",
            "10,10,10\tmarkov\t0.001144568498\t8.150247489\t0.7500\t0.7500\t1.0000",
            "3,3,3\taverage\t0.0018125\t10.16836806\t0.2500\t0.0000\t0.0000",
            "3,3,3\tmarkov\t0.001103490938\t8.014185359\t0.2500\t0.2500\t0.5000",
        ]),
        ("bws", [
            "10,10,10\taverage\t0.003075\t173.3094655\t0.7500\t0.2500\t1.0000",
            "10,10,10\tmarkov\t0.001144568498\t105.5630659\t0.7500\t0.7500\t1.0000",
            "3,3,3\taverage\t0.0018125\t131.5140499\t0.0000\t0.0000\t0.0000",
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

    SCAN_HEADER = "w\tW\tlambda0\tkind\tb\ttheta1\tlambda1\tnu\tnu_se\tp\targmax\tmax"

    @pytest.mark.parametrize("kind,row,report", [
        ("pcs", "1000\t20000\t0.001130395015\tpcs\t3\t0.9760451467\t0.003"
                "\t0.9990659558\t0\t0.9413504651\t0\t3",
         dict(b=3.0, theta1=0.9760451466718211, lambda1=0.0029999999999999996,
              nu=0.9990659557569276, p=0.9413504651475082, argmax=0, max=3.0)),
        ("pls", "1000\t20000\t0.001130395015\tpls\t3.333333333\t0.9101248846"
                "\t0.003038637189\t0.9723776886\t0\t0.999999987\t17658\t3.333333333",
         dict(b=3.333333333333332, theta1=0.9101248845981144,
              lambda1=0.0030386371890327754, nu=0.9723776885687391,
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
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, str(script)], capture_output=True,
                              text=True, timeout=300, env=env)
        assert proc.returncode == 0, proc.stderr


class TestConsoleScript:
    def test_entry_point(self, sample_path):
        proc = subprocess.run(
            [sys.executable, "-m", "palinscan.cli", "estimate",
             "--input", sample_path],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith("id\tlength\tdropped")

    def test_module_error_status(self):
        proc = subprocess.run(
            [sys.executable, "-m", "palinscan.cli", "scan"],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 1
        assert "palinscan scan:" in proc.stderr
