"""Monte Carlo, semi-analytic and exact outage estimation, gain metrics, sweeps. The
exact route broadcasts over operating points, each value its own up to the order of its
sum: the panels that pad a point to the widest point's have zero width (outage_exact).

Determinism contract: every estimate is a pure function of (seed, n) plus the
static parameters. Realizations are partitioned into fixed-size batches and
batch b always draws from substream(seed, *key, b), so the result is
bit-identical no matter how many threads execute the batches. A sweep maps
the batches of all its points as one plan through one thread pool, in one
process, and merges the results in plan order. Policies compared at the same
operating point share the same channel draws (common random numbers), which
sharpens gain and dominance comparisons.

Both kernels draw each batch in full and then evaluate it in one slice loop
(_slices), in slices of CHUNK draws on every thread. Slicing does not change
results: the per-draw math is elementwise IEEE arithmetic, and every sum runs
over the full batch. In the Monte Carlo kernel a conservative screen picks,
per slice, the draws that get the exact outage test, snr() < gamma_0, which
runs once on the batch's picks; every other draw is provably not in outage
under any policy, so no count depends on the screen (see _mc_batch). The
semi-analytic kernel writes each draw's g-averaged outage per slice. The
batch-sized arrays (the gains, each dynamic rho and the semi-analytic outage)
and the slice-sized scratch are rows of a workspace that each thread keeps
and reuses. Every per-slice array operation, in the closed forms of link and
policy as in the screen, writes into those rows with out=, so a warm batch of
either kernel allocates nothing slice-sized; no result depends on it.
"""
from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from .channel import sample_channels, sample_gains, substream
from .link import conditional_outage, h_threshold, margin_terms, snr
from .params import GAIN_BASELINE, GAIN_POLICIES, SweepSpec
from .policy import Fixed, FullCSI, PartialCSI, Policy, decide_rho, policy_name

__all__ = [
    "BATCH_SIZE",
    "OutageEstimate",
    "SweepRow",
    "GainRow",
    "outage_mc",
    "outage_point",
    "outage_semi_analytic",
    "outage_exact",
    "operating_points",
    "gain_eta",
    "horizontal_gain_db",
    "run_sweep",
    "gains_from_sweep",
]

# Fixed batch granularity; part of the determinism contract (changing it
# changes which substream produces which draw).
BATCH_SIZE = 1 << 19

# Draws per slice in _slices, on every thread; no result depends on it. The
# loop allocates nothing per slice, so longer slices only cut the per-call
# overhead that threads pay holding the GIL: of 2^13, 2^14 and 2^15, 2^15 ran
# fastest both serially and on two threads.
CHUNK = 1 << 15

EXACT_NODES = 24  # Gauss-Legendre nodes per outage_exact panel; 32 moves it < 5e-13
# SystemParams' fields in a record of operating points (operating_points, verify._view)
POINT_FIELDS = ("p_s", "sigma_r_sq", "sigma_p_sq", "sigma_d_sq", "epsilon", "gamma_0", "sigma_d_eff")

# Relative slack on the outage screen's two bounds (see _mc_batch).
SCREEN_SLACK = 1e-9

@dataclass(frozen=True)
class OutageEstimate:
    p_out: float        # estimated outage probability
    std_err: float      # standard error of p_out
    n: int              # realization count
    mean_rho: float     # average rho over transmitting realizations (nan if none)
    harvest_only_fraction: float  # fraction of realizations with rho == 1


@dataclass(frozen=True)
class SweepRow:
    sweep_value: float
    policy: Policy
    estimate: OutageEstimate


@dataclass(frozen=True)
class GainRow:
    """Log-ratio gains vs GAIN_BASELINE at one sweep value: eta maps each name
    of GAIN_POLICIES, in order, to (eta, se); se is first-order (independence
    approximation, which is conservative under common random numbers)."""
    sweep_value: float
    eta: dict


def _mc_batch(args):
    """One batch of channel draws evaluated under every policy (CRN).

    Returns (n_out, rho_sum, n_tx) per policy. Outage is snr(rho) < gamma_0.

    Outage is rare wherever the curves are read, so each slice first screens
    its draws with one bound that holds for every policy, and the exact test
    runs once per batch, only on the draws the screen kept (the candidates).
    The bound uses link's margin form of outage, |g|^2 F(rho) < gamma_0 sigma_0^2(rho).
    With k_p = gamma_0 sp^2, k_d = gamma_0 sd^2 and R = {1/2} plus every Fixed
    rho0, a draw is a candidate iff a < A* or |g|^2 a < K (1 + q), where
    A* = max over R of 2 k_p/(1 - rho) and K = max over R of 2 k_d/(rho (1 - rho)),
    each times (1 + SCREEN_SLACK). No outage is dropped:

    * For rho in R and a >= 2 k_p/(1 - rho): F(rho) >= rho (1 - rho) a/2 and
      gamma_0 sigma_0^2(rho) = k_d (1 - rho + q) <= k_d (1 + q), so outage at
      rho implies |g|^2 a < 2 k_d (1 + q)/(rho (1 - rho)). A non-candidate is
      therefore in outage at no rho of R.
    * Full CSI maximizes the SNR and partial CSI maximizes W = F/sigma_0^2, so
      an outage of either implies outage at rho = 1/2. That is why 1/2 is in
      R, also when no Fixed policy is.
    * A harvest-only draw (|h|^2 <= H0) has a <= k_p < A*, so it is a candidate.
    * The slack dwarfs the few-ulp rounding of the float test, also at the
      computed rather than exact optimum rho: the SNR is flat to second
      order there.

    So every count equals the unscreened test's. _slices still computes every
    dynamic rho on every draw, for the rho sum and n_tx. A Fixed rho0 transmits
    on every draw, so its sum is rho0 * size. The screen writes into _slices'
    rows, its bound K (1 + q) over the 1 + q row once the policies have read it.
    """
    params, fading, policies, seed, key, batch_idx, size = args
    dynamic = [pol for pol in policies if not isinstance(pol, Fixed)]
    h_sq, g_sq, *rows = _workspace("batch", 2 + len(dynamic), size)
    h_sq, g_sq = sample_channels(substream(seed, *key, batch_idx), fading, size,
                                 out=(h_sq, g_sq))
    k_p = params.gamma_0 * params.sigma_p_sq
    k_d = params.gamma_0 * params.sigma_d_eff
    # A* and K of the screen: a draw skips the exact test iff a >= a_min and g*a >= k_min*(1 + q).
    screen_rhos = [0.5] + [pol.rho0 for pol in policies if isinstance(pol, Fixed)]
    a_min = max(2.0 * k_p / (1.0 - r) for r in screen_rhos) * (1.0 + SCREEN_SLACK)
    k_min = max(2.0 * k_d / (r * (1.0 - r)) for r in screen_rhos) * (1.0 + SCREEN_SLACK)
    cand, n_tx = [], [0] * len(dynamic)
    for s, (a, _, bound, ga), (low, kept) in _slices(params, h_sq, g_sq, dynamic, rows, n_tx):
        np.less(np.multiply(g_sq[s], a, out=ga), np.multiply(k_min, bound, out=bound), out=kept)
        idx = np.flatnonzero(np.logical_or(np.less(a, a_min, out=low), kept, out=kept))
        idx += s.start
        cand.append(idx)
    # The exact test, once on all the batch's candidates. A harvest-only
    # draw's zeroed rho gives snr = 0, so it is in outage, as at rho = 1.
    cand = np.concatenate(cand)
    h, g = h_sq[cand], g_sq[cand]
    per_dynamic = iter(zip(rows, n_tx))
    stats = []
    for pol in policies:
        if isinstance(pol, Fixed):  # rho0 < 1, so every draw transmits
            rho, rho_sum, tx = pol.rho0, pol.rho0 * size, size
        else:
            row, tx = next(per_dynamic)
            rho, rho_sum = row[cand], float(np.sum(row))
        stats.append((int(np.count_nonzero(snr(params, h, g, rho) < params.gamma_0)), rho_sum, tx))
    return stats


_local = threading.local()


def _workspace(name, count, size, dtype=float):
    """count arrays of size elements of dtype: rows of this thread's workspace
    `name`, which grows to the largest (count, size) asked for and is then
    reused. The batch rows and the slice scratch rows are separate workspaces,
    so that the scratch takes CHUNK elements per row, not a batch."""
    ws = getattr(_local, name, np.empty((0, 0), dtype))
    if ws.shape[0] < count or ws.shape[1] < size:
        ws = np.empty(np.maximum(ws.shape, (count, size)), dtype)
        setattr(_local, name, ws)
    return list(ws[:count, :size])


def _slices(params, h_sq, g_sq, policies, rows, n_tx):
    """The slice loop of both kernels. Per slice s of CHUNK draws, writes
    policy j's rho over s into rows[j], zeroed where the relay only harvests
    (so a row's np.sum is the rho sum), adds the slice's transmitting draws to
    n_tx[j], and yields (s, (a, q, 1 + q, f), (mask, kept)): rows of this
    thread's slice scratch, which _slices owns, cut to len(s). a, q and 1 + q
    are the margin terms of h_sq[s]; the caller may overwrite any row until the
    next slice. g_sq is None when no policy reads |g|^2. Every array operation
    writes into these rows, so none allocates."""
    floats, bools = _workspace("slice", 4, CHUNK), _workspace("mask", 2, CHUNK, bool)
    for lo in range(0, len(h_sq), CHUNK):
        s = slice(lo, lo + CHUNK)
        h, g = h_sq[s], None if g_sq is None else g_sq[s]
        (*terms, f), (mask, _) = views = [[row[:len(h)] for row in ws] for ws in (floats, bools)]
        terms = margin_terms(params, h, out=terms)
        for j, pol in enumerate(policies):
            rho = decide_rho(pol, params, h, g, terms=terms, out=rows[j][s], scratch=(f, mask))
            tx = int(np.count_nonzero(np.less(rho, 1.0, out=mask)))
            n_tx[j] += tx
            if tx < len(h):
                np.copyto(rho, 0.0, where=np.logical_not(mask, out=mask))
        yield (s, *views)


def _sa_batch(args):
    """One batch of h-only draws for one policy, each draw's outage p averaged
    over g in closed form: [(sum p, sum p^2, rho_sum, n_tx)], _mc_batch's
    layout. A harvest-only draw's zeroed rho is infeasible, so its p is 1, as
    at rho = 1. h, rho and p are workspace rows; every sum is batch-wide."""
    params, fading, (policy,), seed, key, batch_idx, size = args
    h_sq, rho, p = _workspace("batch", 3, size)
    sample_gains(substream(seed, *key, batch_idx), fading.lambda_h, size, out=h_sq)
    n_tx = [0]
    for s, (*terms, f), (mask, _) in _slices(params, h_sq, None, [policy], [rho], n_tx):
        conditional_outage(params, h_sq[s], rho[s], fading.lambda_g, terms=terms, out=p[s],
                           scratch=(f, mask))
    p_sum = float(np.sum(p))
    return [(p_sum, float(np.sum(np.square(p, out=p))), float(np.sum(rho)), n_tx[0])]


def _map_batches(fn, points, n, seed, workers):
    """fn over the batches of n draws at every (head, key) of points, in one
    plan: per point, the list of its batch results in batch order. Batch b of
    a point gets head + (seed, key, b, size) and draws from substream(seed, *key, b)."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    count = -(-n // BATCH_SIZE)
    args = (head + (seed, tuple(key), b, min(BATCH_SIZE, n - b * BATCH_SIZE))
            for head, key in points for b in range(count))
    results = thread_map(fn, args, min(workers, count * len(points)))
    return [results[i:i + count] for i in range(0, len(results), count)]


def thread_map(fn, items, workers):
    """[fn(x) for x in items], in item order however the threads are scheduled,
    on min(workers, os.cpu_count()) threads of this process or on the calling
    thread if that is one; the first failed item's error is re-raised."""
    workers = min(workers, os.cpu_count() or 1)  # more threads than cores: only start-up cost
    if workers <= 1:
        return [fn(x) for x in items]
    from concurrent.futures import ThreadPoolExecutor  # not needed at start-up
    with ThreadPoolExecutor(workers) as ex:
        return list(ex.map(fn, items))


def __getattr__(name):
    """sim.ProcessPoolExecutor, imported on first read and then cached. No batch
    runs in a process pool; perfbench/spans.py's PoolProbe reads this name."""
    if name != "ProcessPoolExecutor":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from concurrent.futures import ProcessPoolExecutor
    globals()[name] = ProcessPoolExecutor
    return ProcessPoolExecutor


def _estimates(per_batch, n, std_err):
    """One OutageEstimate per policy from the batch results of one point. A
    policy's result per batch starts with its outage sum and ends with
    (rho_sum, n_tx); std_err(p, results) gives the standard error of p, and
    rho is averaged over the n_tx transmitting draws."""
    estimates = []
    for stats in zip(*per_batch):  # one policy's result per batch
        p, n_tx = math.fsum(s[0] for s in stats) / n, sum(s[-1] for s in stats)
        estimates.append(OutageEstimate(
            p_out=p, std_err=std_err(p, stats), n=n,
            mean_rho=math.fsum(s[-2] for s in stats) / n_tx if n_tx else float("nan"),
            harvest_only_fraction=(n - n_tx) / n))
    return estimates


def _mc_estimates(per_batch, n):
    """_estimates of _mc_batch results, whose outage indicators are Bernoulli."""
    return _estimates(per_batch, n, lambda p, stats: math.sqrt(p * (1.0 - p) / n))


def outage_point(params, fading, policies, gamma_0, n, seed, workers=1):
    """Monte Carlo outage, one OutageEstimate per policy in order, on shared draws. gamma_0 must
    equal params.gamma_0; perfbench/workloads.py passes it, and ROADMAP item 1 drops the slot."""
    if gamma_0 != params.gamma_0:
        raise ValueError(f"gamma_0={gamma_0!r} is not params.gamma_0={params.gamma_0!r}")
    head = (params, fading, tuple(policies))
    return _mc_estimates(_map_batches(_mc_batch, [(head, ())], n, seed, workers)[0], n)


def outage_mc(params, fading, policy, n, seed) -> OutageEstimate:
    """Monte Carlo outage probability for a single policy."""
    return outage_point(params, fading, (policy,), params.gamma_0, n, seed)[0]


def outage_semi_analytic(params, fading, policy, n_h, seed) -> OutageEstimate:
    """Outage via sampled h and the closed-form expectation over g, for a
    policy whose rho does not depend on g (PartialCSI, Fixed): FullCSI's needs
    the |g|^2 this estimator never draws. The per-draw outage lies in [0, 1],
    so the standard error comes from its sample variance, not a Bernoulli model.
    """
    if isinstance(policy, FullCSI):
        raise ValueError("semi-analytic estimator requires a g-independent policy")

    def std_err(p, stats):
        var = (math.fsum(s[1] for s in stats) - n_h * p * p) / (n_h - 1) if n_h > 1 else 0.0
        return math.sqrt(max(var, 0.0) / n_h)  # clip tiny negative rounding residue

    head = (params, fading, (policy,))
    return _estimates(_map_batches(_sa_batch, [(head, ())], n_h, seed, 1)[0], n_h, std_err)[0]


def operating_points(configs):
    """The (SystemParams, FadingParams) pairs of configs as one record array of points."""
    names = POINT_FIELDS + ("lambda_h", "lambda_g")
    rows = [(*(getattr(p, n) for n in POINT_FIELDS), f.lambda_h, f.lambda_g) for p, f in configs]
    return np.array(rows, [(n, float) for n in names]).view(np.recarray)  # np.rec.array refuses []


def outage_exact(params, fading, policy):
    """Exact outage: outage_semi_analytic's integrand times the |h|^2 density, summed on
    Gauss-Legendre panels with edges at h_c + h_c 10^k (k >= -3) up to h_c + 40 lambda_h;
    below h_c = h_threshold(params, rho0), or H0 for a dynamic policy, outage is certain.
    Broadcasts over points (operating_points): each point's edges are capped at 40 lambda_h,
    so its panels past its own have zero width and add 0; only its sum's order moves. It
    holds about 20 KiB per point at once (20-55 dBm), so pass a few thousand points per call."""
    from numpy.polynomial.legendre import leggauss  # 3 ms to import: not at start-up
    if isinstance(policy, FullCSI):  # it fails on exactly the draws PartialCSI fails on
        policy = PartialCSI()
    lam, rho0 = fading.lambda_h, getattr(policy, "rho0", 0.0)  # H0 is h_c at rho0 = 0
    with np.errstate(all="ignore"):  # h_c may over- or underflow: refused below
        h_c, top = np.broadcast_arrays(h_threshold(params, rho0), 40.0 * lam)
        bad = ~np.isfinite(np.log(top / h_c))  # h_c is 0, inf or NaN
    if bad.any():
        raise ValueError(f"outage_exact needs 0 < 40 lambda_h/h_c < inf, got h_c = {h_c[bad][0]}"
                         + (f" at point {np.argmax(bad)}" if h_c.ndim else ""))
    widest = np.max(top / h_c, initial=1e-3)  # 1e-3 adds no decade: an empty record has none
    decades = 10.0 ** np.arange(-3.0, math.log10(widest))
    edges = np.stack([np.zeros_like(top), *np.minimum(np.multiply.outer(decades, h_c), top), top])
    t, w = (x.reshape((-1,) + (1,) * h_c.ndim) for x in leggauss(EXACT_NODES))
    half = 0.5 * np.diff(edges, axis=0)[:, None]  # axes (panel, node, *points); offsets from h_c
    h, w = h_c + edges[:-1, None] + half * (1.0 + t), half * w
    p = conditional_outage(params, h, decide_rho(policy, params, h, None), fading.lambda_g)
    terms = np.moveaxis(w * np.exp(-h / lam) * p, (0, 1), (-2, -1)).copy()  # pairwise per point
    p = np.minimum(1.0, -np.expm1(-h_c / lam) + np.sum(terms, axis=(-2, -1)) / lam)
    return float(p) if p.ndim == 0 else p


def gain_eta(p_out_x: float, p_out_ref: float) -> float:
    """Log-ratio performance gain -ln(p_x / p_ref) vs a baseline policy."""
    if not (0.0 < p_out_x < 1.0 and 0.0 < p_out_ref < 1.0):
        raise ValueError(
            "insufficient resolution: outage estimates must lie strictly in (0, 1); "
            f"got {p_out_x!r} and {p_out_ref!r} (increase n)"
        )
    return -math.log(p_out_x / p_out_ref)


def horizontal_gain_db(curve_dyn, curve_base, at_p_s_dbm: float) -> float:
    """Horizontal (dB) gap between two outage-vs-P_s curves.

    Reads the dynamic curve's outage at `at_p_s_dbm` (log-linear interpolation)
    and returns how many extra dB of transmit power the base curve needs to
    reach the same outage. Positive means the dynamic policy saves power.
    """
    def _unpack(curve, name):
        xs = np.asarray([float(x) for x, _ in curve])
        ps = np.asarray([float(p) for _, p in curve])
        if np.any(np.diff(xs) <= 0):
            raise ValueError(f"{name} curve must have strictly increasing P_s")
        if np.any(np.diff(ps) >= 0):
            raise ValueError(f"{name} curve must be strictly decreasing in P_s")
        if np.any(ps <= 0):
            raise ValueError(f"{name} curve has non-positive outage values")
        return xs, np.log(ps)

    xs_d, logp_d = _unpack(curve_dyn, "dynamic")
    xs_b, logp_b = _unpack(curve_base, "base")
    if not xs_d[0] <= at_p_s_dbm <= xs_d[-1]:
        raise ValueError(f"at_p_s_dbm={at_p_s_dbm} outside dynamic curve domain")
    target = float(np.interp(at_p_s_dbm, xs_d, logp_d))
    if not logp_b[-1] <= target <= logp_b[0]:
        raise ValueError("extrapolation refused: target outage outside base curve range")
    # logp_b is decreasing; flip for np.interp's increasing-x requirement
    p_s_prime = float(np.interp(target, logp_b[::-1], xs_b[::-1]))
    return p_s_prime - at_p_s_dbm


def run_sweep(spec: SweepSpec, workers: int = 1) -> tuple:
    """One SweepRow per (sweep value, policy), value-major; deterministic in spec.seed.

    Each sweep point owns the substream key (point_index,); within a point all
    policies share channel draws. The batches of all points form one plan and
    one map, so a sweep starts at most one thread pool; results are split back
    per point in plan order, so point i's estimates depend only on its own batches.
    """
    plan = [((p, f, tuple(spec.policies)), (i,)) for i, (p, f) in enumerate(spec.points)]
    per_point = _map_batches(_mc_batch, plan, spec.n, spec.seed, workers)
    return tuple(
        SweepRow(sweep_value=float(value), policy=pol, estimate=est)
        for value, per_batch in zip(spec.values, per_point)
        for pol, est in zip(spec.policies, _mc_estimates(per_batch, spec.n))
    )


def _eta_se(est_x: OutageEstimate, est_ref: OutageEstimate) -> float:
    return math.sqrt(
        (est_x.std_err / est_x.p_out) ** 2 + (est_ref.std_err / est_ref.p_out) ** 2
    )


def gains_from_sweep(rows):
    """GainRow per sweep value, relative to GAIN_BASELINE.

    Requires the sweep to include the baseline and every policy of GAIN_POLICIES.
    """
    by_value = {}
    for row in rows:
        by_value.setdefault(row.sweep_value, {})[policy_name(row.policy)] = row.estimate
    gains = []
    for value in sorted(by_value):
        ests = by_value[value]
        missing = [k for k in (GAIN_BASELINE,) + GAIN_POLICIES if k not in ests]
        if missing:
            raise ValueError(f"gain computation needs policies {missing} at value {value}")
        ref = ests[GAIN_BASELINE]
        gains.append(GainRow(value, {
            name: (gain_eta(ests[name].p_out, ref.p_out), _eta_se(ests[name], ref))
            for name in GAIN_POLICIES
        }))
    return gains
