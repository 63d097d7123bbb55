"""Acceptance suite: every criterion at its pinned tolerance.

Prints one [ACCEPTANCE] line per criterion. Runs Monte-Carlo criteria in
the reduced continuous-integration mode by default (25 runs, tolerances
widened 2x); set ICFPIE_ACCEPT_FULL=1 for the full 100-run study at the
tight tolerances.
"""

import dataclasses
import os
import time

import numpy as np
import pytest

from conftest import random_spd
from consensus_reference import closed_neighborhoods
from icfpie.consensus import ConsensusState, averaging_powers, plan_lanes, run_consensus
from icfpie.dicf import ckf_step, correction_terms
from icfpie.harness import (
    ScenarioConfig,
    build_scenario,
    make_algorithms,
    run_monte_carlo,
    run_once,
    sweep_consensus_steps,
)
from icfpie.info_filter import information_state, to_state_estimate
from icfpie.models import (
    MeasurementModel,
    SystemModel,
    constant_velocity_matrix,
    position_measurement_matrix,
)
from icfpie.network import consensus_gain, random_geometric
from icfpie.selection import default_schedule
from icf_reference import run_original_icf
from kf_reference import run_kf
from one_seed import step_one

FULL_MODE = os.environ.get("ICFPIE_ACCEPT_FULL") == "1"
MC_RUNS = 100 if FULL_MODE else 25
JITTER_BAND = 0.10 if FULL_MODE else 0.20
CLOSENESS = 0.15 if FULL_MODE else 0.30
JOBS = min(4, os.cpu_count() or 1)

SWEEP_L = [2, 4, 8, 12, 16, 20]


def report(num: int, name: str, passed: bool, detail: str = ""):
    status = "PASS" if passed else "FAIL"
    print(f"[ACCEPTANCE] criterion {num} ({name}): {status} {detail}")
    assert passed, f"criterion {num} ({name}) failed: {detail}"


@pytest.fixture(scope="module")
def mc_cfg():
    return ScenarioConfig(seed=100, mc_runs=MC_RUNS)


@pytest.fixture(scope="module")
def sweep_result(mc_cfg):
    return sweep_consensus_steps(mc_cfg, SWEEP_L, jobs=JOBS)


@pytest.fixture(scope="module")
def stability_mc(mc_cfg):
    """Diagnostics Monte Carlo at L=12 for both selection cases."""
    out = {}
    for case in ("case1", "case2"):
        cfg = dataclasses.replace(mc_cfg, selection=case)
        out[case] = run_monte_carlo(cfg, 12, include=("ckf", "icfpie"),
                                    diagnostics=True, jobs=JOBS)
    return out


def test_criterion_1_identity_schedule_reduction():
    start = time.time()
    cfg = ScenarioConfig(seed=1, mc_runs=1, selection="identity")
    scenario = build_scenario(cfg, cfg.seed)
    schedule = default_schedule(4, "identity")

    prior = scenario.zero_prior(cfg.n_nodes)
    plan = plan_lanes([(schedule, 12)], averaging_powers(scenario.net, scenario.eps, 12)[None], 4)
    n_steps = cfg.n_steps
    est = np.zeros((n_steps, cfg.n_nodes, 4))
    omegas = np.zeros((n_steps, cfg.n_nodes, 4, 4))
    for t in range(n_steps):
        terms = correction_terms(scenario.sensor, scenario.measurements[t], scenario.sensed[t])
        prior, posterior, est[t] = step_one(prior, plan, terms, scenario.sys)
        omegas[t] = posterior.omega

    ref_est, ref_omegas = run_original_icf(
        constant_velocity_matrix(cfg.dt), np.linalg.inv(scenario.sys.process_cov),
        position_measurement_matrix(), scenario.sensor.v,
        closed_neighborhoods(scenario.net.adjacency), scenario.eps, 12,
        scenario.measurements, scenario.sensed, np.zeros(4), np.zeros((4, 4)))
    diff = max(np.max(np.abs(est - ref_est)), np.max(np.abs(omegas - ref_omegas)))
    elapsed = time.time() - start
    report(1, "identity-schedule reduction", diff < 1e-10 and elapsed < 5.0,
           f"max-abs diff {diff:.2e} over 30 s, {elapsed:.2f} s")


def test_criterion_2_average_consensus_limit():
    start = time.time()
    rng = np.random.default_rng(2024)
    net = random_geometric(10, (0, 600, 0, 600), 300.0, rng)
    state = ConsensusState(
        B=np.array([random_spd(rng, 4) for _ in range(10)]),
        b=rng.normal(size=(10, 4)),
    )
    out = run_consensus(state, default_schedule(4, "case1"), 1000,
                        averaging_powers(net, consensus_gain(net), 1000))
    dev = max(np.max(np.abs(out.B - state.B.mean(axis=0))),
              np.max(np.abs(out.b - state.b.mean(axis=0))))
    elapsed = time.time() - start
    report(2, "average-consensus limit", dev < 1e-6 and elapsed < 1.0,
           f"max deviation from initial mean {dev:.2e}, {elapsed:.2f} s")


def test_criterion_3_single_step_convergence_to_benchmark():
    start = time.time()
    # complete topology: every pair within communication range
    cfg = ScenarioConfig(seed=33, mc_runs=1, region=(0.0, 200.0, 0.0, 200.0))
    scenario = build_scenario(cfg, cfg.seed)
    assert scenario.net.max_degree() == cfg.n_nodes - 1
    meas, sensed = scenario.measurements[0], scenario.sensed[0]

    plan = plan_lanes([(default_schedule(4, "case1"), 400)],
                      averaging_powers(scenario.net, scenario.eps, 400)[None], 4)
    _, posterior, estimates = step_one(scenario.zero_prior(cfg.n_nodes), plan,
                                       correction_terms(scenario.sensor, meas, sensed),
                                       scenario.sys)
    _, ckf_post, _ = ckf_step(scenario.zero_prior(1), meas, sensed, scenario.sensor,
                              scenario.sys)
    x_ckf = to_state_estimate(ckf_post)[0]

    worst_omega = max(
        np.linalg.norm(posterior.omega[k] - ckf_post.omega[0])
        / np.linalg.norm(ckf_post.omega[0]) for k in range(cfg.n_nodes))
    worst_x = max(
        np.linalg.norm(estimates[k] - x_ckf) / np.linalg.norm(x_ckf)
        for k in range(cfg.n_nodes))
    elapsed = time.time() - start
    report(3, "single-step convergence to the centralized filter",
           worst_omega < 1e-4 and worst_x < 1e-4 and elapsed < 2.0,
           f"max relative diff: omega {worst_omega:.2e}, estimate {worst_x:.2e}, "
           f"{elapsed:.2f} s")


def test_criterion_4_bandwidth_ratios_exact():
    start = time.time()
    cfg = ScenarioConfig(seed=4, mc_runs=1)
    scenario = build_scenario(cfg, cfg.seed)
    L = 12
    totals = {}
    per_step = {}
    for kind in ("identity", "case1", "case2"):
        plan = plan_lanes([(default_schedule(4, kind), L)],
                          averaging_powers(scenario.net, scenario.eps, L)[None], 4)
        step_one(scenario.zero_prior(cfg.n_nodes), plan,
                 correction_terms(scenario.sensor, scenario.measurements[0],
                                  scenario.sensed[0]), scenario.sys)
        (payloads,) = plan.payloads
        totals[kind] = cfg.n_nodes * sum(payloads)
        per_step[kind] = cfg.n_nodes * payloads[0]
    ok = (2 * totals["case1"] == totals["identity"]
          and 4 * totals["case2"] == totals["identity"]
          and 2 * per_step["case1"] == per_step["identity"]
          and 4 * per_step["case2"] == per_step["identity"]
          and totals["identity"] == L * cfg.n_nodes * 20)
    elapsed = time.time() - start
    report(4, "bandwidth ratios",
           ok and elapsed < 1.0,
           f"totals identity={totals['identity']}, case1={totals['case1']}, "
           f"case2={totals['case2']}, {elapsed:.2f} s")


def test_criterion_5_final_error_over_consensus_steps(sweep_result):
    ckf_final = np.mean([row["final_error"] for row in sweep_result.rows
                         if row["label"] == "ckf"])
    ok = True
    details = []
    for label in ("icfpie[1]", "icfpie[2]"):
        series = [sweep_result.final_error(L, label) for L in SWEEP_L]
        for prev, nxt in zip(series, series[1:]):
            if nxt > prev + JITTER_BAND * ckf_final:
                ok = False
        gap = abs(series[-1] - ckf_final)
        if gap > CLOSENESS * ckf_final:
            ok = False
        details.append(f"{label}: " + " ".join(f"{v:.3f}" for v in series))
    report(5, "final error vs consensus depth", ok,
           f"ckf={ckf_final:.3f} | " + " | ".join(details)
           + f" ({sweep_result.n_runs} runs)")


def test_criterion_6_bounded_error_at_reference_depth(stability_mc):
    ok = True
    worst_ratio = 0.0
    for case, mc in stability_mc.items():
        label = f"icfpie[{case[-1]}]"
        if mc.failures:
            ok = False
        for diag in mc.run_diags:
            if not (diag[label]["finite"] and diag["ckf"]["finite"]):
                ok = False
            ratio = diag[label]["last10s_mse_max_node"] / diag["ckf"]["last10s_mse_max_node"]
            worst_ratio = max(worst_ratio, ratio)
            if ratio > 4.0:
                ok = False
    report(6, "mean-square stability at L=12", ok,
           f"worst node MSE ratio vs benchmark {worst_ratio:.2f} "
           f"(limit 4.0, {MC_RUNS} runs x 2 cases, 0 divergent)")


def test_criterion_7_information_matrix_boundedness(stability_mc):
    ok = True
    lam_lo, lam_hi = np.inf, 0.0
    reg_events = 0
    for case, mc in stability_mc.items():
        label = f"icfpie[{case[-1]}]"
        for diag in mc.run_diags:
            lo = diag[label]["eig_min_after_transient"]
            hi = diag[label]["eig_max_after_transient"]
            lam_lo, lam_hi = min(lam_lo, lo), max(lam_hi, hi)
            reg_events += diag[label]["reg_events_after_transient"]
            if not (lo > 0 and np.isfinite(hi)):
                ok = False
    if reg_events != 0:
        ok = False
    report(7, "information-matrix boundedness after transient", ok,
           f"eigenvalue band [{lam_lo:.3e}, {lam_hi:.3e}], "
           f"{reg_events} regularization events after t=2s")


def test_criterion_8_information_vs_covariance_oracle():
    start = time.time()
    rng = np.random.default_rng(88)
    worst = 0.0
    for _ in range(3):
        n, m = 4, 2
        a = np.eye(n) + 0.05 * rng.normal(size=(n, n))
        q = random_spd(rng, n)
        c = rng.normal(size=(m, n))
        r = random_spd(rng, m)
        p0 = random_spd(rng, n)
        x0 = rng.normal(size=n)
        sys = SystemModel.lti(a, q)
        model = MeasurementModel.linear(c, r)

        omega0 = np.linalg.inv(p0)
        state = information_state(omega0[None], (omega0 @ x0)[None])
        ys = [[rng.normal(size=m)] for _ in range(100)]
        xs_ref, ps_ref = run_kf(x0, p0, a, q, [(c, r)], ys)
        for t in range(100):
            state, posterior, _ = ckf_step(state, np.array(ys[t]), np.ones(1, dtype=bool),
                                           model, sys)
            x_hat = to_state_estimate(posterior)[0]
            p_hat = np.linalg.inv(posterior.omega[0])
            worst = max(
                worst,
                np.linalg.norm(x_hat - xs_ref[t]) / np.linalg.norm(xs_ref[t]),
                np.linalg.norm(p_hat - ps_ref[t]) / np.linalg.norm(ps_ref[t]),
            )
    elapsed = time.time() - start
    report(8, "information-form vs covariance-form equivalence",
           worst < 1e-9 and elapsed < 1.0,
           f"worst relative diff {worst:.2e} over 100 steps x 3 systems, "
           f"{elapsed:.2f} s")
