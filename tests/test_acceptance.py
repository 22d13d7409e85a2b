"""Acceptance criteria, one test per criterion.

Each test prints a single CRITERION line (through the capture, so it is
visible in normal pytest runs) and asserts the stated tolerance/runtime.
Each also compares its suite report, byte for byte in canonical JSON, with
the golden report in tests/golden/<suite>.json.
"""

import json
import random
import time
from pathlib import Path

import pytest

from convbialg.suites import run_suite


@pytest.fixture
def models():
    """Fresh builtin models for each criterion, as `convbialg check` gives
    each suite; a shared registry would grow with every earlier criterion."""
    from convbialg.models import builtin_models

    return builtin_models()


def report(capsys, n, ok, desc, dt):
    with capsys.disabled():
        print(f"CRITERION {n:2d}: {'PASS' if ok else 'FAIL'} - {desc} ({dt:.2f}s)")


def failures(rep):
    return [c for c in rep["checks"] if not c["pass"]]


GOLDEN = Path(__file__).parent / "golden"


def assert_golden(rep):
    """The report's canonical JSON (as `convbialg check --output json`
    writes it) equals its golden file."""
    text = json.dumps(rep, sort_keys=True, separators=(",", ":"), default=str) + "\n"
    assert text == (GOLDEN / f"{rep['suite']}.json").read_text(encoding="utf-8")


def test_criterion_01_lie_rinehart(capsys, models):
    t0 = time.monotonic()
    rep = run_suite("lie-rinehart", models=models)
    dt = time.monotonic() - t0
    ok = rep["pass"] and dt < 1.0
    report(capsys, 1, ok, "Lie-Rinehart axioms on all models + corrupted witness, <1s", dt)
    assert rep["pass"], failures(rep)
    assert_golden(rep)
    assert dt < 1.0


def test_criterion_02_uea_suite_and_oracle(capsys, models):
    from convbialg.suites import _random_uea
    from convbialg.uea import uea_mul
    from free_oracle import oracle_mul

    t0 = time.monotonic()
    rep = run_suite("uea", models=models)
    rng = random.Random(0xC0FFEE)
    algs = [models["pair"].algebroid, models["heisenberg"].algebroid]
    oracle_ok = True
    for k in range(50):
        A = algs[k % 2]
        u, v = _random_uea(rng, A, max_deg=3), _random_uea(rng, A, max_deg=3)
        if oracle_mul(u, v) != uea_mul(u, v).terms:
            oracle_ok = False
            break
    dt = time.monotonic() - t0
    ok = rep["pass"] and oracle_ok and dt < 10.0
    report(capsys, 2, ok, "UEA suite exact + free-algebra oracle on 50 products, <10s", dt)
    assert rep["pass"], failures(rep)
    assert_golden(rep)
    assert oracle_ok
    assert dt < 10.0


def test_criterion_03_etale_hopf(capsys, models):
    t0 = time.monotonic()
    rep = run_suite("hopf-etale", models=models)
    dt = time.monotonic() - t0
    report(capsys, 3, rep["pass"], "etale Hopf axioms (i)-(viii) on 30 elements, exact", dt)
    assert rep["pass"], failures(rep)
    assert_golden(rep)


def test_criterion_04_commuting_square(capsys, models):
    t0 = time.monotonic()
    rep = run_suite("commuting-square", models=models)
    dt = time.monotonic() - t0
    report(capsys, 4, rep["pass"],
           "commuting square on all bisections x 20 u x 5 F "
           "(exact; truncated series <1e-9 on flat kinks)", dt)
    assert rep["pass"], failures(rep)
    assert_golden(rep)


def test_criterion_05_defining_product_formula(capsys, models):
    t0 = time.monotonic()
    rep = run_suite("prop43", models=models)
    dt = time.monotonic() - t0
    report(capsys, 5, rep["pass"], "dist_mul vs defining *-formula on >=100 pairs, exact", dt)
    assert rep["pass"], failures(rep)
    assert_golden(rep)


def test_criterion_06_phi_homomorphism(capsys, models):
    t0 = time.monotonic()
    rep = run_suite("phi-homomorphism", models=models)
    dt = time.monotonic() - t0
    report(capsys, 6, rep["pass"], "Phi(a'.a) = Phi(a')*Phi(a) on 100 pairs per model, exact", dt)
    assert rep["pass"], failures(rep)
    assert_golden(rep)


def test_criterion_07_kernel_example(capsys, models):
    t0 = time.monotonic()
    rep = run_suite("kernel-example", models=models)
    dt = time.monotonic() - t0
    ok = rep["pass"] and dt < 5.0
    report(capsys, 7, ok, "four-kink kernel element: a != 0, Phi(a) = 0 "
           "(kernel_test + stratified exact), <5s", dt)
    assert rep["pass"], failures(rep)
    assert_golden(rep)
    assert dt < 5.0


def test_criterion_08_cartier_gabriel(capsys, models):
    t0 = time.monotonic()
    rep = run_suite("cartier-gabriel", models=models)
    dt = time.monotonic() - t0
    report(capsys, 8, rep["pass"],
           "Heisenberg: Phi injective on <=5-element sums + twisted product", dt)
    assert rep["pass"], failures(rep)
    assert_golden(rep)


def test_criterion_09_etale_iso(capsys, models):
    t0 = time.monotonic()
    rep = run_suite("etale-iso", models=models)
    dt = time.monotonic() - t0
    report(capsys, 9, rep["pass"],
           "etale: Phi injective and surjective onto the degree-0 span", dt)
    assert rep["pass"], failures(rep)
    assert_golden(rep)


def test_criterion_10_fd_sanity(capsys, models):
    t0 = time.monotonic()
    rep = run_suite("fd-sanity", models=models)
    dt = time.monotonic() - t0
    report(capsys, 10, rep["pass"],
           "derivatives match central differences, rel 1e-6 at 20 points", dt)
    assert rep["pass"], failures(rep)
    assert_golden(rep)
