"""Tests of the benchmark itself: tracer coverage and accounting, the input
generator, and the output checks.

    python3 -m pytest perfbench/tests
"""

import contextlib
import io
import json
import time

import numpy as np
import pytest

import checks
import genome
import run
import tracer

# Fraction of the traced wall time that the summed self times may miss: the
# root span covers everything but the wrapper's own entry and exit.
SELF_TIME_RTOL = 0.05


@pytest.fixture
def traced():
    spans = tracer.Tracer()
    restore, absent = tracer.install(spans)
    try:
        yield spans, absent
    finally:
        restore()


def test_install_wraps_every_public_function_at_every_binding():
    import palinscan.sim

    originals, missing = tracer.public_functions()
    assert missing == []
    assert {name.split(".")[0] for name in originals} == set(tracer.LAYERS)
    bindings = [(m, attr, obj) for m in tracer._palinscan_modules()
                for attr, obj in vars(m).items()
                if any(obj is fn for fn in originals.values())]
    spans = tracer.Tracer()
    restore, absent = tracer.install(spans)
    try:
        assert absent == []
        assert set(originals) <= set(spans.spans)
        for module, attr, obj in bindings:
            assert getattr(module, attr).__wrapped__ is obj, (module.__name__, attr)
        for _, _, meth in tracer.METHODS:
            assert hasattr(getattr(palinscan.sim.TiltedScoreSampler, meth), "__wrapped__")
    finally:
        restore()
    for module, attr, obj in bindings:
        assert getattr(module, attr) is obj
    assert not hasattr(palinscan.sim.TiltedScoreSampler.draw, "__wrapped__")


def test_internal_calls_are_spanned(traced):
    import palinscan

    spans, _ = traced
    model = palinscan.bohv1_model()
    sm = palinscan.ScoreModel("pls", model, 6)
    lam = palinscan.markov_rate(model, 6).value
    palinscan.solve_tilt(lam, sm, 10.0, 1000)
    for name in ("scan.solve_tilt", "mgf.log_mgf_prime", "numeric.derivative",
                 "mgf.score_mgf", "numeric.mat_inv", "numeric.find_root"):
        assert spans.spans[name].calls > 0, name


def test_missing_names_are_reported_not_fatal(monkeypatch):
    monkeypatch.setattr(tracer, "METHODS", tracer.METHODS + (("sim", "Gone", "draw"),))
    restore, absent = tracer.install(tracer.Tracer())
    restore()
    assert absent == ["sim.Gone.draw"]

    report = {"wrapped": ["scan.solve_tilt"], "absent": absent,
              "spans": {"op": {"scan.solve_tilt": dict.fromkeys(tracer.FIELDS, 1)}},
              "traced": {"records": [{"label": "op", "s": 1.0}]},
              "untraced": {"records": [{"label": "op", "s": 1.0}]}}
    per_layer = [{"name": "scan.solve_tilt.calls", "unit": "count"},
                 {"name": "mgf.renamed.s", "unit": "s"},
                 {"name": "trace.absent", "unit": "count"}]
    values, absent = run.layer_metrics(per_layer, report, 0.0)
    assert values["scan.solve_tilt.calls"]["value"] == 1
    assert values["mgf.renamed.s"]["value"] == 0.0
    assert absent == ["mgf.renamed.s", "sim.Gone.draw"]
    assert values["trace.absent"]["value"] == 2


def test_self_times_sum_to_traced_wall_time(tmp_path, traced):
    import palinscan.cli

    spans, _ = traced
    g = genome.genome(300_000, seed=5, n_clusters=1)
    fasta = tmp_path / "g.fa"
    genome.write_fasta(fasta, g.bases, "g")
    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        assert palinscan.cli.main(["scan", "--input", str(fasta), "--score", "bws"]) == 0
    wall = time.perf_counter() - start
    self_total = sum(span.self_s for span in spans.spans.values())
    assert spans.spans["cli.main"].s <= wall
    assert self_total == pytest.approx(spans.spans["cli.main"].s, rel=1e-9)
    assert self_total == pytest.approx(wall, rel=SELF_TIME_RTOL)
    assert spans.spans["palindrome.find_palindromes"].bases == g.bases.size


def test_generator_matches_bohv1_transitions():
    pi, trans = genome.bohv1_parameters()
    bases = genome.markov_chain(2_000_000, pi, trans, np.random.default_rng(3))
    _, fitted = genome.fitted_model(bases)
    rows = np.bincount(bases[:-1], minlength=4)[:, None]
    se = np.sqrt(trans * (1 - trans) / rows)
    assert np.all(np.abs(fitted - trans) < 5 * se)


def test_generator_is_seeded_and_plants_palindromes():
    a, b = genome.genome(200_000, seed=9), genome.genome(200_000, seed=9)
    assert np.array_equal(a.bases, b.bases) and a.clusters == b.clusters
    assert not np.array_equal(a.bases, genome.genome(200_000, seed=10).bases)
    import palinscan

    seq = palinscan.DnaSeq(bases=a.bases)
    centers = [e.center for e in palinscan.find_palindromes(seq, 8)]
    for start, stop in a.clusters:
        assert sum(start <= c < stop for c in centers) >= 40


def test_rate_oracle_and_fasta_match_palinscan(tmp_path):
    import palinscan

    g = genome.genome(100_007, seed=2, n_clusters=1)
    path = tmp_path / "g.fa"
    genome.write_fasta(path, g.bases, "g")
    (record,) = palinscan.parse_fasta_file(path)
    assert np.array_equal(record.seq.bases, g.bases)
    pi, trans = genome.fitted_model(g.bases)
    expected = palinscan.markov_rate(palinscan.estimate_model(record.seq), 6).value
    assert genome.markov_rate(pi, trans, 6) == pytest.approx(expected, rel=1e-12)


# ---- output checks: a correct output passes, each corruption fails ----

CLUSTERS = ((5_000, 6_000), (50_000, 51_000))
SCAN = {"w": 1000, "W": 100_000, "lambda0": 0.00109, "kind": "pls", "b": 20.0,
        "theta1": 2.5, "lambda1": 0.02, "nu": 0.88, "nu_se": 5.5e-4, "p": 1.7e-10,
        "argmax": 4_900, "max": 20.0}


def scan_problems(**changes):
    return checks.scan_report(json.dumps({**SCAN, **changes}), "pls", CLUSTERS,
                              0.00109, 100_000, 1000)


def test_scan_check_accepts_correct_report():
    assert scan_problems() == []


@pytest.mark.parametrize("changes", [
    {"argmax": 20_000}, {"argmax": 6_000}, {"lambda0": 0.00109 * (1 + 1e-6)},
    {"p": 0.0}, {"p": 1.5}, {"p": float("nan")}, {"nu": 0.0}, {"nu": 1.01},
    {"nu_se": 1e-3}, {"kind": "bws"}, {"W": 99_999},
])
def test_scan_check_rejects_corrupted_report(changes):
    assert scan_problems(**changes)


def test_scan_check_rejects_unparseable_output():
    assert checks.scan_report("not json", "pls", CLUSTERS, 0.00109, 100_000, 1000)
    assert checks.scan_report('{"w": 1000}', "pls", CLUSTERS, 0.00109, 100_000, 1000)


def test_threshold_checks():
    good = [{"threshold": 9.07, "p": 0.04999969, "nu": 0.92, "nu_se": 4.4e-4}]
    assert checks.threshold_checks("pls", 0.05, good) == []
    assert checks.threshold_checks("pls", 0.05, [{**good[0], "p": 0.0506}])
    assert checks.threshold_checks("pls", 0.05, [{**good[0], "nu_se": 7e-4}])
    rising = {("pls", 0.05): 9.07, ("pls", 0.01): 9.97, ("pls", 0.001): 11.17,
              ("bws", 0.05): 112.8, ("bws", 0.01): 125.0, ("bws", 0.001): 141.4}
    assert checks.threshold_order(rising) == {}
    assert set(checks.threshold_order({**rising, ("bws", 0.001): 120.0})) == {"bws"}


POWER = """kind\talpha\tmultipliers\testimator\trate\tthreshold\tpower1\tpower2\tpower3
pls\t0.0005\t10,10,10\taverage\t0.001334062572\t12.54995752\t0.7000\t0.5500\t0.5000
pls\t0.0005\t10,10,10\tmarkov\t0.001097574578\t11.59272898\t0.7500\t0.6500\t0.6000
"""
SIMULATE = """a1\ta2\ta3\tlambda_avg\tlambda_markov
10\t10\t10\t0.001334062572\t0.001097574578
"""


def test_power_and_simulate_checks():
    assert checks.power_table(POWER, "pls") == []
    assert checks.power_table(POWER, "bws")
    assert checks.power_table(POWER.replace("11.59272898", "12.6"), "pls")
    assert checks.power_table(POWER.replace("0.7500", "1.2500"), "pls")
    assert checks.power_table(POWER.splitlines()[0], "pls")
    assert checks.simulate_table(SIMULATE) == []
    assert checks.simulate_table(SIMULATE.replace("0.001097574578", "-0.001"))
    assert checks.simulate_table(SIMULATE.replace("0.001097574578", "nan"))
    assert checks.simulate_table("a1\n")


def test_run_level_checks_mark_failed_records():
    records = [{"label": "simulate", "out": SIMULATE, "err": None},
               {"label": "simulate", "out": SIMULATE.replace("334", "335"), "err": None},
               {"label": "simulate", "out": None, "err": "ValueError: boom"}]
    problems = checks.problems_by_record("power_study", records, {})
    assert [bool(p) for p in problems] == [False, True, True]
