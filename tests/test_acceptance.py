"""Acceptance suite: one test per exit criterion, printing a PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Every tolerance is fixed here; seeds are fixed so the suite is
deterministic.
"""

import numpy as np

from blindcrb.channel import (
    COMPLEX,
    REAL,
    Channel,
    example_channel,
    reducible_decompose,
    ti_matrix,
)
from blindcrb.crb import (
    constrained_crb,
    norm_constraint,
    phase_constraint,
)
from blindcrb.fim import (
    DETERMINISTIC,
    GAUSSIAN,
    GaussianModelConfig,
    analyze_singularities,
    channel_block,
    deterministic_fim,
    deterministic_reduced_fim,
    gaussian_fim,
    gaussian_moment_stack,
    schur_reduce,
)
from blindcrb.channel import block_toeplitz, taps_from_stacked
from blindcrb.linalg import null_space_basis
from blindcrb.simulate import (
    ExperimentConfig,
    experiment_symbols,
    mse_vs_crb_experiment,
    score_covariance_fim,
)

from conftest import channel_with_common_roots, random_burst, random_channel
from oracles import (
    constrained_crb_projector_form,
    deterministic_null_directions,
    projector,
    subspace_distance,
    svd_pseudo_inverse,
)


def _report(num, desc, ok, detail=""):
    line = f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {desc}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------
# 1. singularity census over random irreducible channels
# ---------------------------------------------------------------------------


def test_criterion_1_singularity_census():
    rng = np.random.default_rng(101)
    m, N, M = 2, 4, 20
    cfg = GaussianModelConfig(1.0, 1.0, M)
    want = {"det/real": 1, "det/complex": 2, "gauss/real": 0, "gauss/complex": 1}
    got = {k: [] for k in want}
    for k in range(20):
        ch_r = random_channel(rng, m, N, REAL)
        ch_c = random_channel(rng, m, N, COMPLEX)
        A_r = random_burst(rng, M + N - 1, REAL)
        A_c = random_burst(rng, M + N - 1, COMPLEX)
        got["det/real"].append(
            analyze_singularities(deterministic_fim(ch_r, A_r, 1.0, M)).nullity)
        got["det/complex"].append(
            analyze_singularities(deterministic_fim(ch_c, A_c, 1.0, M).realified()).nullity)
        got["gauss/real"].append(
            analyze_singularities(gaussian_fim(ch_r, cfg)).nullity)
        got["gauss/complex"].append(
            analyze_singularities(gaussian_fim(ch_c, cfg).realified()).nullity)
    ok = all(all(v == want[cell] for v in vals) for cell, vals in got.items())
    detail = ", ".join(f"{cell}: {sorted(set(vals))} want {want[cell]}"
                       for cell, vals in got.items())
    _report(1, "singularity census over 20 random channels per cell", ok, detail)


# ---------------------------------------------------------------------------
# 2. reducible-channel singularity counts
# ---------------------------------------------------------------------------


def test_criterion_2_reducible_counts():
    rng = np.random.default_rng(202)
    M = 20
    ok = True
    details = []
    for roots in ([0.5], [0.5, -0.3]):
        Nc = len(roots) + 1
        ch, _, _ = channel_with_common_roots(rng, 2, 3, roots, COMPLEX)
        A = random_burst(rng, M + ch.N - 1, COMPLEX)
        full = analyze_singularities(deterministic_fim(ch, A, 1.0, M))
        red_fim = deterministic_reduced_fim(ch, A, 1.0, M)
        red = analyze_singularities(red_fim)
        dec = reducible_decompose(ch)
        dist = subspace_distance(red.null_basis, ti_matrix(dec))
        this_ok = (full.nullity == 2 * Nc - 1 and red.nullity == Nc and dist < 1e-8)
        ok = ok and this_ok
        details.append(
            f"N_c={Nc}: global {full.nullity} (want {2 * Nc - 1}), "
            f"reduced {red.nullity} (want {Nc}), null/range dist {dist:.1e}")
    _report(2, "reducible deterministic singularity counts", ok, "; ".join(details))


# ---------------------------------------------------------------------------
# 3. zero-structure census for the Gaussian model
# ---------------------------------------------------------------------------


def test_criterion_3_gaussian_zero_census():
    rng = np.random.default_rng(303)
    checks = []

    ch, _, _ = channel_with_common_roots(rng, 2, 3, [0.5, 2.0], REAL)
    n = analyze_singularities(gaussian_fim(ch, GaussianModelConfig(M=20))).nullity
    checks.append(("real pair-zero -> 1", n == 1, n))

    z0 = 0.5 + 0.5j
    ch, _, _ = channel_with_common_roots(rng, 2, 3, [z0, 1 / np.conj(z0)], COMPLEX)
    n = analyze_singularities(
        gaussian_fim(ch, GaussianModelConfig(M=20)).realified()).nullity
    checks.append(("complex pair-zero -> 3", n == 3, n))

    ch, _, _ = channel_with_common_roots(rng, 2, 3, [1.0], REAL)
    n = analyze_singularities(gaussian_fim(ch, GaussianModelConfig(M=20))).nullity
    checks.append(("real zero at +1 -> 0+1", n == 1, n))

    ch, _, _ = channel_with_common_roots(rng, 2, 3, [1.0], COMPLEX)
    n = analyze_singularities(
        gaussian_fim(ch, GaussianModelConfig(M=20)).realified()).nullity
    checks.append(("complex zero at +1 -> 1+1", n == 2, n))

    mono = Channel(np.poly([0.5, -0.3])[None, :], field=REAL, name="mono")
    rep = analyze_singularities(gaussian_fim(mono, GaussianModelConfig(M=10)))
    sigma_comp = abs(rep.null_basis[-1, 0]) if rep.nullity else 0.0
    checks.append(("monochannel clean -> noise-variance singularity",
                   rep.nullity == 1 and sigma_comp > 1e-3,
                   f"nullity {rep.nullity}, sigma component {sigma_comp:.3f}"))

    ok = all(c[1] for c in checks)
    _report(3, "zero-structure singularity census",
            ok, "; ".join(f"{c[0]}: got {c[2]}" for c in checks))


# ---------------------------------------------------------------------------
# 4. trace minimality of the pseudo-inverse bound
# ---------------------------------------------------------------------------


def test_criterion_4_minimality():
    rng = np.random.default_rng(404)
    B = rng.standard_normal((6, 4))
    J = B @ B.T                          # rank-4 PSD, nullity 2
    base = float(np.trace(svd_pseudo_inverse(J)))
    worst = -np.inf
    checked = 0
    while checked < 50:
        K = rng.standard_normal((6, 2))  # minimal independent constraint set
        res = constrained_crb(J, K)
        if not res.bounded:
            continue
        worst = max(worst, base - res.trace)
        assert res.trace >= base - 1e-9 * base
        checked += 1
    null = null_space_basis(J)
    eq = constrained_crb(J, null @ (rng.standard_normal((2, 2)) + 2 * np.eye(2)))
    eq_ok = abs(eq.trace - base) <= 1e-9 * base
    _report(4, "pseudo-inverse trace minimality over 50 minimal constraint sets",
            eq_ok and worst <= 1e-9 * base,
            f"max undercut {worst:.2e}, equality gap {abs(eq.trace - base):.2e}")


# ---------------------------------------------------------------------------
# 5. bound-formula equivalences
# ---------------------------------------------------------------------------


def test_criterion_5_formula_equivalences():
    rng = np.random.default_rng(505)
    ok = True
    details = []

    # tangent-basis form == spanning form == projector form
    worst = 0.0
    for _ in range(5):
        B = rng.standard_normal((7, 5))
        J = B @ B.T
        K = rng.standard_normal((7, 2))
        res = constrained_crb(J, K)
        V = null_space_basis(K.T)
        # overcomplete spanning matrix with bounded conditioning (a nearly
        # rank-deficient mixing only stresses pinv truncation, not the math)
        k = V.shape[1]
        mix = np.hstack([np.eye(k), rng.standard_normal((k, 1))])
        A_mix = V @ mix
        scale = np.linalg.norm(res.crb)
        worst = max(worst,
                    np.linalg.norm(constrained_crb_projector_form(J, A_mix) - res.crb) / scale,
                    np.linalg.norm(constrained_crb_projector_form(J, projector(V)) - res.crb) / scale)
    ok &= worst < 1e-9
    details.append(f"three-form relative gap {worst:.2e}")

    # fixed-norm(+phase) constraint reproduces the pseudo-inverse bound
    ch = Channel(example_channel("random").coeffs.astype(complex), field=COMPLEX)
    A = random_burst(rng, 23, COMPLEX)
    Jr = deterministic_reduced_fim(ch, A, 1.0, 20).realified().J
    res = constrained_crb(Jr, norm_constraint(ch.h, COMPLEX))
    want = svd_pseudo_inverse(Jr)
    gap1 = np.linalg.norm(res.crb - want) / np.linalg.norm(want)
    ok &= gap1 < 1e-9
    details.append(f"norm+phase vs pinv gap {gap1:.2e}")

    # Gaussian blind bound: pseudo-inverse path == phase-constrained path
    chg = random_channel(rng, 2, 3, COMPLEX)
    cfg = GaussianModelConfig(M=8)
    res_blind = constrained_crb(channel_block(gaussian_fim(chg, cfg)))
    Jred = schur_reduce(gaussian_fim(chg, cfg).realified(), "h")
    via_phase = constrained_crb(Jred, phase_constraint(chg.h))
    gap2 = np.linalg.norm(res_blind.crb - via_phase.crb) / np.linalg.norm(res_blind.crb)
    ok &= gap2 < 1e-9 and via_phase.bounded
    details.append(f"phase-path gap {gap2:.2e}")

    _report(5, "constrained-bound formula equivalences", ok, "; ".join(details))


# ---------------------------------------------------------------------------
# 6. analytic FIM vs Monte Carlo score covariance
# ---------------------------------------------------------------------------


def _fim_check(cfg, J_analytic):
    est = score_covariance_fim(cfg)
    tr_rel = abs(np.trace(est.J_hat) - np.trace(J_analytic)) / abs(np.trace(J_analytic))
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(est.std_err > 0,
                     np.abs(est.J_hat - J_analytic) / est.std_err, 0.0)
    return tr_rel, float(z.max())


def test_criterion_6_score_covariance_oracle():
    trials = 10_000
    ch_det = random_channel(np.random.default_rng(61), 2, 2, COMPLEX)
    cfg_det = ExperimentConfig(channel=ch_det, model=DETERMINISTIC, M=6,
                               sigma_v2=0.5, trials=trials, seed=606)
    A = experiment_symbols(cfg_det)
    J_det = deterministic_fim(ch_det, A, 0.5, 6).realified().J
    tr_det, z_det = _fim_check(cfg_det, J_det)

    ch_g = random_channel(np.random.default_rng(62), 2, 2, COMPLEX)
    cfg_g = ExperimentConfig(channel=ch_g, model=GAUSSIAN, M=4,
                             sigma_v2=0.8, trials=trials, seed=607)
    J_g = gaussian_fim(ch_g, GaussianModelConfig(1.0, 0.8, 4)).realified().J
    tr_g, z_g = _fim_check(cfg_g, J_g)

    ok = tr_det < 0.05 and z_det < 3.0 and tr_g < 0.05 and z_g < 3.0
    _report(6, "Monte Carlo score covariance matches analytic FIMs",
            ok, f"det: trace {tr_det:.3%}, max|z| {z_det:.2f}; "
                f"gauss: trace {tr_g:.3%}, max|z| {z_g:.2f}")


# ---------------------------------------------------------------------------
# 7. known-coefficient sweep on the decaying channel
# ---------------------------------------------------------------------------


def test_criterion_7_known_coefficient_sweep():
    rng = np.random.default_rng(707)
    ch = example_channel("decaying")
    A = random_burst(rng, 23, REAL)
    J = deterministic_reduced_fim(ch, A, 1.0, 20).J
    base = constrained_crb(J).trace
    traces = []
    for i in range(8):
        traces.append(constrained_crb(J, np.eye(8)[:, [i]]).trace)
    traces = np.array(traces)
    dominated = bool(np.all(traces >= base * (1 - 1e-9)))
    argmax = int(np.argmax(traces))
    smallest = int(np.argmin(np.abs(ch.h)))
    ok = dominated and argmax == smallest
    _report(7, "known-coefficient sweep dominates minimal bound, worst at "
               "smallest coefficient", ok,
            f"argmax {argmax}, smallest |h_i| at {smallest}, base {base:.1f}")


# ---------------------------------------------------------------------------
# 8. estimator MSE respects the bound
# ---------------------------------------------------------------------------


def test_criterion_8_mse_respects_bound():
    ch = example_channel("random")
    cfg = ExperimentConfig(channel=ch, model=DETERMINISTIC, M=100,
                           trials=500, seed=808, ls_sweeps=400)
    row = mse_vs_crb_experiment(cfg, [20.0])[0]
    slack = row.mse["NO"] - (row.crb_trace - 3 * row.std_err["NO"])
    ok = slack >= 0.0
    _report(8, "alternating-LS MSE >= bound - 3 SE at 20 dB",
            ok, f"mse {row.mse['NO']:.5f}, bound {row.crb_trace:.5f}, "
                f"se {row.std_err['NO']:.5f}, nonconverged {row.nonconverged}")


# ---------------------------------------------------------------------------
# 9. second-order moment flatness along null directions
# ---------------------------------------------------------------------------


def test_criterion_9_null_direction_curvature():
    rng = np.random.default_rng(909)
    eps = np.logspace(-5, -2, 7)
    slopes = []

    ch = random_channel(rng, 2, 3, COMPLEX)
    nA = 12
    A = random_burst(rng, nA, COMPLEX)
    M = nA - ch.N + 1
    mean0 = ch.toeplitz(M) @ A
    for _, v in deterministic_null_directions(ch, A):
        diffs = [
            np.linalg.norm(
                block_toeplitz(taps_from_stacked(ch.h + e * v[nA:], ch.m), M)
                @ (A + e * v[:nA]) - mean0)
            for e in eps
        ]
        slopes.append(np.polyfit(np.log(eps), np.log(diffs), 1)[0])

    cfg = GaussianModelConfig(M=6)
    chg = random_channel(rng, 2, 3, COMPLEX)
    fim = gaussian_fim(chg, cfg).realified()
    rep = analyze_singularities(fim)
    n = chg.m * chg.N
    C0 = gaussian_moment_stack(chg, cfg).cov
    for k in range(rep.nullity):
        v = rep.null_basis[:, k]
        hp, sp = v[:n] + 1j * v[n:2 * n], v[2 * n]
        diffs = []
        for e in eps:
            T = block_toeplitz(taps_from_stacked(chg.h + e * hp, chg.m), cfg.M)
            Ce = cfg.sigma_a2 * (T @ T.conj().T) + (cfg.sigma_v2 + e * sp) * np.eye(T.shape[0])
            diffs.append(np.linalg.norm(Ce - C0))
        slopes.append(np.polyfit(np.log(eps), np.log(diffs), 1)[0])

    ok = all(s >= 1.9 for s in slopes)
    _report(9, "moment change is second order along null directions",
            ok, "slopes " + ", ".join(f"{s:.3f}" for s in slopes))
