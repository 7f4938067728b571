"""End-to-end acceptance gates.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion.  The energy-sweep criteria share two full runs of the shipped
``fig3`` preset (10^4 trials per point) executed through the CLI with
different worker counts, which doubles as the byte-identity check.  The
``k7.*`` gates check criteria 6 and 8, and that the non-overlapped design
fails no more often than the overlapped one, on one sweep of the k = 7
geometry at n = 49.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest
from reference import pairwise_exceedance, reference_search, response_matrix
from scipy import integrate

from beamest.analysis import _rayleigh_terms
from beamest.arrays import AngleGrid, ChannelRealization
from beamest.cli import main as cli_main
from beamest.codebook import IndexRange
from beamest.estimator import (
    NON_OVERLAPPED,
    OVERLAPPED,
    Design,
    EstimatorConfig,
    codebook_bank,
    run_estimation,
    search_batch,
)
from beamest.montecarlo import ExperimentConfig, bound_table, run_sweep

SQ2 = 1.0 / math.sqrt(2.0)

# expected totals per geometry: (k, n) -> (overlapped, non_overlapped),
# i.e. log2(k+1)^2 respectively k^2 slots per stage times log_k(n) stages
SLOT_TABLE = {
    (3, 3): (4, 9), (3, 9): (8, 18), (3, 27): (12, 27), (3, 81): (16, 36),
    (7, 7): (9, 49), (7, 49): (18, 98), (7, 343): (27, 147), (7, 2401): (36, 196),
}


def check(criterion, description: str, condition: bool, detail: str = ""):
    status = "PASS" if condition else "FAIL"
    suffix = f" [{detail}]" if detail else ""
    print(f"\nACCEPTANCE {criterion} {status} - {description}{suffix}")
    assert condition, f"criterion {criterion} failed: {description}{suffix}"


@pytest.fixture(scope="module")
def fig3_runs(tmp_path_factory, fig3_sweep):
    """The fig3 preset executed twice through the CLI (1 and 2 workers); the
    1-worker run is the session's shared ``fig3_sweep``."""
    dirs = {1: fig3_sweep["dir"]}
    elapsed = {1: fig3_sweep["elapsed"]}
    out = tmp_path_factory.mktemp("fig3") / "workers2"
    started = time.perf_counter()
    code = cli_main(["sweep", "--config", "fig3", "--out", str(out),
                     "--workers", "2", "--quiet"])
    elapsed[2] = time.perf_counter() - started
    assert code == 0
    dirs[2] = out
    return {"dirs": dirs, "elapsed": elapsed}


def read_table(path: Path) -> dict[str, np.ndarray]:
    lines = path.read_text().strip().split("\n")
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return {name: np.array([float(r[i]) for r in rows])
            for i, name in enumerate(header)}


def test_criterion_1_slot_table():
    started = time.perf_counter()
    mismatches = []
    for (k, n), (overlapped, baseline) in SLOT_TABLE.items():
        if Design(n, k, OVERLAPPED).slots != overlapped:
            mismatches.append((k, n, "overlapped"))
        if Design(n, k, NON_OVERLAPPED).slots != baseline:
            mismatches.append((k, n, "non_overlapped"))
    elapsed = time.perf_counter() - started
    check(1, "slot counts match the expected table on all 16 cells",
          not mismatches and elapsed < 1.0,
          f"elapsed {elapsed * 1000:.1f} ms")


def test_criterion_2_codebook_fidelity():
    n, k = 27, 3
    bank = codebook_bank(n, k, OVERLAPPED)
    grid = AngleGrid(n)
    patterns = bank.patterns
    worst_residual = 0.0
    worst_in = 0.0
    worst_out = 0.0
    parents = [IndexRange(0, 27)]
    for _depth in range(3):
        next_parents = []
        for parent in parents:
            blocks = parent.split(k)
            next_parents.extend(blocks)
            _, cb = bank.refine(parent, parent, k, stage=1)
            worst_residual = max(worst_residual, cb.residual)
            realized = np.abs(response_matrix(grid).conj().T @ cb.f)
            covered = np.zeros(n, dtype=bool)
            target = np.zeros((n, patterns.m))
            for j, block in enumerate(blocks):
                covered[block.start:block.stop] = True
                target[block.start:block.stop, :] = cb.gain * patterns.values[:, j]
            slack = cb.residual + 1e-12
            worst_in = max(worst_in, float(np.abs(realized[covered] - target[covered]).max()))
            if (~covered).any():
                worst_out = max(worst_out, float(realized[~covered].max()))
            assert np.abs(realized[covered] - target[covered]).max() <= slack
            if (~covered).any():
                assert realized[~covered].max() <= slack
        parents = next_parents
    check(2, "realized beam gains are piecewise flat at every stage and parent",
          worst_residual <= 1e-6,
          f"residual {worst_residual:.2e}, in-range dev {worst_in:.2e}, "
          f"leakage {worst_out:.2e}")


def test_criterion_3_noiseless_exactness():
    started = time.perf_counter()
    trials = 10_000
    singles = 100
    failures = 0
    for n, k, seed in ((27, 3, 101), (49, 7, 202)):
        rng = np.random.default_rng(seed)
        thetas = rng.integers(n, size=trials)
        phis = rng.integers(n, size=trials)
        gains = rng.normal(size=trials) + 1j * rng.normal(size=trials)
        for variant in (OVERLAPPED, NON_OVERLAPPED):
            cfg = EstimatorConfig(n=n, k=k, p_t=1.0, n0=0.0, var_alpha=float(n * n),
                                  variant=variant)
            m = cfg.design.m
            batch = search_batch(cfg.design, [cfg.p_t], thetas, phis, gains,
                                 np.zeros((trials, cfg.design.stages, m, m), dtype=complex))
            failures += int(np.count_nonzero((batch.theta_hat[:, 0] != thetas)
                                             | (batch.phi_hat[:, 0] != phis)))
            # the batch-of-one path on the first channels of the same draw
            for t in range(singles):
                channel = ChannelRealization(theta=int(thetas[t]), phi=int(phis[t]),
                                             alpha=complex(gains[t]), n=n)
                trace = run_estimation(channel, cfg)
                failures += (trace.theta_hat != channel.theta
                             or trace.phi_hat != channel.phi)
    elapsed = time.perf_counter() - started
    check(3, "noiseless runs recover both angles exactly in 100% of trials",
          failures == 0 and elapsed < 30.0,
          f"{2 * 2 * trials} batched and {2 * 2 * singles} single runs, "
          f"{failures} failures, {elapsed:.1f} s")


def test_criterion_4_mismatch_attenuation():
    rng = np.random.default_rng(404)
    cfg = EstimatorConfig(n=27, k=3, p_t=1.0, n0=0.0, var_alpha=729.0)
    worst_ratio = 0.0
    for _ in range(1000):
        channel = ChannelRealization(theta=int(rng.integers(27)),
                                     phi=int(rng.integers(27)),
                                     alpha=complex(rng.normal(), rng.normal()), n=27)
        for _, r, kr, kt in reference_search(channel, cfg, 0):
            magnitudes = np.abs(r)
            correct = magnitudes[kr, kt]
            magnitudes[kr, kt] = 0.0
            worst_ratio = max(worst_ratio, float(magnitudes.max() / correct))
    check(4, "every off-hypothesis fused magnitude is at most 1/sqrt(2) of the "
             "correct one (noiseless)",
          worst_ratio <= SQ2 + 1e-9, f"worst ratio {worst_ratio:.12f}")


def _pair_exceedance_mc(rho, mean_mag, samples, seed):
    rng = np.random.default_rng(seed)

    def cnormal(var):
        return (rng.normal(scale=math.sqrt(var / 2), size=samples)
                + 1j * rng.normal(scale=math.sqrt(var / 2), size=samples))

    shared = cnormal(rho)
    r_mis = rho * mean_mag + shared + cnormal(1 - rho)
    r_cor = mean_mag + shared + cnormal(1 - rho)
    p = float(np.mean(np.abs(r_mis) > np.abs(r_cor)))
    return p, math.sqrt(p * (1 - p) / samples)


def test_criterion_5_pairwise_error_oracles():
    rhos = (0.0, 0.5, SQ2)
    fixed_worst = 0.0
    for i, rho in enumerate(rhos):
        for j, snr in enumerate((0.5, 2.0, 8.0)):
            predicted = pairwise_exceedance(rho, 1.0, 1.0, math.sqrt(snr))
            estimate, se = _pair_exceedance_mc(rho, math.sqrt(snr), 1_000_000,
                                               5_000 + 10 * i + j)
            fixed_worst = max(fixed_worst, abs(predicted - estimate) / se)
    rayleigh_worst = 0.0
    for rho in rhos:
        for u in (1.0, 10.0, 100.0):
            def integrand(x):
                return (pairwise_exceedance(rho, 1.0, 1.0, x)
                        * (2 * x / u) * math.exp(-x * x / u))

            quadrature, _ = integrate.quad(integrand, 0.0, 12.0 * math.sqrt(u),
                                           limit=200)
            rayleigh_worst = max(rayleigh_worst,
                                 abs(_rayleigh_terms(rho, 1.0, 1.0, u) - quadrature))
    check(5, "pairwise error forms match the Monte Carlo and quadrature oracles",
          fixed_worst < 3.0 and rayleigh_worst < 1e-3,
          f"fixed-gain worst {fixed_worst:.2f} std errs, "
          f"averaged worst {rayleigh_worst:.2e} abs")


def test_criterion_6_bound_dominance(fig3_runs):
    out = fig3_runs["dirs"][1]
    elapsed = fig3_runs["elapsed"][1]
    table = read_table(out / "overlapped_pcef.csv")
    bound = read_table(out / "bound.csv")
    assert np.array_equal(table["et_db"], bound["et_db"])
    pcef = table["pcef"]
    trials = table["trials"]
    sigma = np.sqrt(pcef * (1 - pcef) / trials)
    dominated = bool(np.all(bound["bound"] >= pcef - 3 * sigma))
    in_range = int(np.sum((pcef >= 1e-2) & (pcef <= 1.0)))
    spans = bool(pcef.min() <= 1e-2) and bool(pcef.max() >= 0.9) and in_range >= 8
    check(6, "analytical bound dominates the simulated failure probability "
             "across the sweep",
          dominated and spans and elapsed < 300.0,
          f"{len(pcef)} points, pcef {pcef.max():.3f}..{pcef.min():.4f}, "
          f"sweep {elapsed:.0f} s")


def _interpolate_crossing(et_db: np.ndarray, pcef: np.ndarray, level: float) -> float:
    # pcef decreases with energy; interpolate et at the level in log space
    above = np.where(pcef > level)[0]
    below = np.where(pcef <= level)[0]
    i = above[-1]
    j = below[below > i][0]
    x0, x1 = et_db[i], et_db[j]
    y0, y1 = math.log10(pcef[i]), math.log10(pcef[j])
    target = math.log10(level)
    return x0 + (x1 - x0) * (target - y0) / (y1 - y0)


def test_criterion_7_energy_gap(fig3_runs):
    out = fig3_runs["dirs"][1]
    overlapped = read_table(out / "overlapped_pcef.csv")
    baseline = read_table(out / "non_overlapped_pcef.csv")
    et_overlapped = _interpolate_crossing(overlapped["et_db"], overlapped["pcef"], 0.1)
    et_baseline = _interpolate_crossing(baseline["et_db"], baseline["pcef"], 0.1)
    gap = et_overlapped - et_baseline
    check(7, "overlapped search needs 2.5 +/- 1 dB extra energy at 10% failure",
          1.5 <= gap <= 3.5,
          f"gap {gap:.2f} dB (overlapped {et_overlapped:.2f}, "
          f"baseline {et_baseline:.2f})")


def test_criterion_8_mmse_improvement(fig3_runs):
    out = fig3_runs["dirs"][1]
    weak_points = []
    compared = 0
    for variant in (OVERLAPPED, NON_OVERLAPPED):
        table = read_table(out / f"{variant}_pcef.csv")
        mask = table["pcef"] < 0.5
        compared += int(mask.sum())
        gains = table["relerr_final_all_trials"][mask] - table["relerr_mmse_all_trials"][mask]
        if not np.all(gains > 0):
            weak_points.append(variant)
    check(8, "all-stage MMSE gain estimate beats the final-stage estimate at "
             "every point with failure probability below one half",
          not weak_points and compared >= 8,
          f"{compared} points compared")


def test_criterion_9_worker_determinism(fig3_runs):
    dirs = fig3_runs["dirs"]
    names = ["overlapped_pcef.csv", "non_overlapped_pcef.csv", "bound.csv"]
    identical = all((dirs[1] / name).read_bytes() == (dirs[2] / name).read_bytes()
                    for name in names)
    check(9, "identical seed with different worker counts produces "
             "byte-identical result tables",
          identical, f"{len(names)} tables compared")


def _orthogonal_detection_success(a2: float, hypotheses: int, n0: float) -> float:
    """Probability that noncoherent detection picks the true one of
    ``hypotheses`` orthogonal signals, the true one of energy ``a2``, each
    branch with complex noise of variance ``n0`` (Proakis, *Digital
    Communications*, ch. 4)."""
    return sum((-1) ** j * math.comb(hypotheses - 1, j) / (j + 1)
               * math.exp(-j * a2 / ((j + 1) * n0)) for j in range(hypotheses))


def test_non_overlapped_pcef_matches_exact_quadrature(fig3_sweep):
    # With P = I a stage's k^2 scores are the true pair's alpha sqrt(p_t) plus
    # complex noise of variance n0 in every entry, fresh at each stage: M-ary
    # orthogonal detection with M = k^2.  Given |alpha|^2 the S stages all
    # succeed with P_ok(|alpha|^2 p_t)^S, so PCEF = 1 - E[P_ok^S] over
    # |alpha|^2 ~ Exp(var_alpha), one quadrature per point.  A stage-s beam is
    # 1 / sqrt(n / k^s) on its sub-range, so C_s^-4 = (n / k^s)^2 and
    # E_T = k^2 sum_s p_t C_s^-4 gives p_t from the model alone.
    n, k, n0, var_alpha = 27, 3, 1.0, 27.0 ** 2  # the fig3 preset
    stages, hypotheses = 3, k * k
    weight = hypotheses * sum((n / k ** s) ** 2 for s in range(1, stages + 1))
    table = read_table(fig3_sweep["dir"] / "non_overlapped_pcef.csv")
    z = []
    for et_db, failures, trials in zip(table["et_db"], table["failures"], table["trials"]):
        scale = var_alpha * n0 * 10.0 ** (et_db / 10.0) / weight  # E[|alpha|^2] p_t
        success, _ = integrate.quad(
            lambda x: math.exp(-x) * _orthogonal_detection_success(x * scale, hypotheses,
                                                                   n0) ** stages,
            0.0, math.inf)
        exact = 1.0 - success
        z.append((failures / trials - exact) / math.sqrt(exact * (1.0 - exact) / trials))
    z = np.array(z)
    check("pcef.1", "the non-overlapped PCEF matches the exact M-ary orthogonal "
                    "detection level at every fig3 point within 4 sigma",
          len(z) == 19 and bool(np.all(np.abs(z) <= 4.0)),
          f"max |z| {np.abs(z).max():.2f}, sum z^2 {np.sum(z ** 2):.1f}")


# The k = 7 gates' grid: 10-38 dB in steps of 4
K7_ET_DB = tuple(float(db) for db in range(10, 39, 4))


@pytest.fixture(scope="module")
def k7_sweep():
    """Both designs swept at n = 49, k = 7 (5,000 trials, seed 11) with the
    paper's bound on the same grid: ``(tables, bound points)``."""
    cfg = ExperimentConfig(n=49, k=7, et_db=K7_ET_DB, trials=5000, master_seed=11)
    return run_sweep(cfg, workers=1), bound_table(49, 7, K7_ET_DB)


def _sigma(table) -> np.ndarray:
    return np.sqrt(table.pcef * (1 - table.pcef) / table.trials)


def test_k7_bound_dominance(k7_sweep):
    tables, points = k7_sweep
    table = tables[OVERLAPPED]
    bound = np.array([p.bound for p in points])
    dominated = bool(np.all(table.pcef <= bound + 4 * _sigma(table)))
    unclamped = ~np.array([p.clamped for p in points]) & (table.pcef > 0)
    ratios = bound[unclamped] / table.pcef[unclamped]
    check("k7.1", "analytical bound dominates the simulated overlapped failure "
                  "probability at n = 49, k = 7 within 4 sigma",
          dominated and len(ratios) > 0,
          f"{len(table.pcef)} points; bound/pcef where unclamped: " + ", ".join(
              f"{db:.0f} dB {r:.1f}x" for db, r in zip(np.array(K7_ET_DB)[unclamped], ratios)))


def test_k7_mmse_improvement(k7_sweep):
    tables, _ = k7_sweep
    weak_points = []
    compared = 0
    for variant, table in tables.items():
        mask = table.pcef < 0.5
        compared += int(mask.sum())
        if not np.all(table.relerr_final_all[mask] > table.relerr_mmse_all[mask]):
            weak_points.append(variant)
    check("k7.2", "all-stage MMSE gain estimate beats the final-stage estimate at "
                  "every n = 49, k = 7 point with failure probability below one half",
          not weak_points and compared >= 8, f"{compared} points compared")


def test_k7_non_overlapped_fails_less(k7_sweep):
    tables, _ = k7_sweep
    overlapped, baseline = tables[OVERLAPPED], tables[NON_OVERLAPPED]
    # sigma of the difference of the two estimates, as if independent
    sigma = np.hypot(_sigma(overlapped), _sigma(baseline))
    check("k7.3", "non-overlapped failure probability at n = 49, k = 7 stays at or "
                  "below the overlapped one at equal energy within 4 sigma",
          bool(np.all(baseline.pcef <= overlapped.pcef + 4 * sigma)),
          f"{len(K7_ET_DB)} points, non-overlapped/overlapped "
          f"{(baseline.pcef / overlapped.pcef).max():.2f} at most")
