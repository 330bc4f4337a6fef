"""Seeded Monte-Carlo campaigns and witness search.

Ties the samplers to the catalog checks: each campaign draws states of the
matching system (Haar pure, fixed-spectrum mixed, or fermionic), computes
marginal spectra and runs the family check.  Per-trial seeds are derived
from the campaign seed by counter offset, so reports are independent of
worker count and bit-reproducible.

Trials run in blocks that fill a fixed memory budget, ``BLOCK_BYTES``:
each numpy call of a block costs the same fixed overhead whatever the
block's size, so small systems take hundreds of trials a block and large
fermionic ones a few dozen (``_block_trials``).  Each trial still draws from
its own Philox stream ``(seed, trial)`` the values and generator words the
per-trial samplers draw; the block is then reduced and eigensolved by
``reduce_states``, as ``qmarginal reduce`` reduces a state file, and checked
at once.  The keys of a block's streams are derived when the block is drawn
(``tensor.PhiloxStreams``) and one generator is re-keyed per trial, which
draws exactly what ``rng_from_seed(seed, trial)`` draws.  Every operation on
a block acts on each trial's rows alone, so a trial's slack is bitwise the
same whatever block it falls in.
"""

from __future__ import annotations

import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .catalog import SpectraBlock, _check_count, check_block
from .fermion import fermion_basis, one_rdm_stack
from .records import CatalogError, SpectraBundle, _check_tolerance, get_family
from .spectra import Spectrum, spectrum
from .systems import SystemDescriptor, parse_system
from .tensor import (
    PhiloxStreams,
    complex_gaussian,
    complex_gaussian_stack,
    fixed_spectrum_stack,
    fixed_spectrum_values,
    flat_dirichlet_rows,
    haar_vectors,
    hilbert_schmidt_stack,
    partial_trace_stack,
    pure_marginal_stack,
    rng_from_seed,
    spectra_of_stack,
    spectra_rows,
    unitaries_from_gaussian,
)


@dataclass(frozen=True)
class CampaignReport:
    family_id: str
    system: str
    trials: int
    seed: int
    min_slack: float
    violations: int
    wall_time: float
    tolerance: float
    # Lowest stream index whose slack is min_slack; None without trials.
    worst_trial: int = None


# Bytes of the arrays one block may hold at once.  Each numpy call of a
# block has a fixed cost, so larger blocks are faster; past about 1 MiB they
# save little more time but raise the peak RSS of a campaign.
BLOCK_BYTES = 1 << 20


def _block_trials(system: SystemDescriptor, chunk: int) -> int:
    """Trials per block of ``system``: as many as fit ``BLOCK_BYTES``, at
    least one and at most ``chunk``.  A trial's arrays hold at most about
    5 D complex numbers for a pure state of dimension D and 5 D^2 for a
    mixed one.  A fermionic one-RDM adds what ``one_rdm_stack`` holds at
    once: the zero-padded state (D or D^2), the r x r RDM and, D' being the
    dimension of the (n-1)-sector, the annihilated states Phi (r x D') and
    their conjugate for a pure state, or the r x r x D' gathered terms for
    a mixed one.
    """
    width = 5 * system.dim if system.pure else 5 * system.dim ** 2
    if system.kind == "fermion":
        r, sub = system.r, math.comb(system.r, system.n - 1)
        width += r * r + (system.dim + 2 * r * sub if system.pure
                          else system.dim ** 2 + r * r * sub)
    return max(1, min(chunk, BLOCK_BYTES // (16 * width)))


def _pure_joint(count: int, size: int) -> np.ndarray:
    joint = np.zeros((count, size))
    joint[:, 0] = 1.0
    return joint


def _bipartitions(dims):
    if len(dims) == 2:
        return [((0,), (1,))]
    return [
        ((i,), tuple(j for j in range(len(dims)) if j != i))
        for i in range(len(dims))
    ]


def reduce_states(system: SystemDescriptor, states: np.ndarray, keeps=None,
                  joint=None) -> SpectraBlock:
    """Spectra of a (T, D) stack of unit vectors or a (T, D, D) stack of
    density matrices of ``system``: one marginal spectrum per factor list of
    ``keeps`` (by default, per factor) of a tensor system, or the one-body
    spectrum and trace (n times the state's) of a fermionic one.  The joint
    spectrum is ``joint`` if given, else that of a pure state or the one
    ``spectra_of_stack`` solves, checking each matrix as ``DensityMatrix`` does.
    """
    pure = states.ndim == 2
    if joint is None:
        joint = (_pure_joint(len(states), states.shape[1]) if pure
                 else spectra_of_stack(states, 1.0))
    if system.kind == "fermion":
        gamma = one_rdm_stack(fermion_basis(system.r, system.n), states)
        trace = (np.full(len(states), float(system.n)) if pure
                 else system.n * np.trace(states, axis1=1, axis2=2).real)
        return SpectraBlock(one_body=spectra_of_stack(gamma, trace),
                            one_body_trace=trace, joint=joint)
    marginal = pure_marginal_stack if pure else partial_trace_stack
    if keeps is None:
        keeps = [(i,) for i in range(len(system.dims))]
    return SpectraBlock(sites=tuple(spectra_of_stack(marginal(states, system.dims, keep), 1.0)
                                    for keep in keeps), joint=joint)


def _sample_blocks(system: SystemDescriptor, streams: PhiloxStreams, nu=None,
                   basic=False) -> list:
    """Draw one state per stream of ``streams`` and reduce them to spectra
    blocks; ``basic`` (mixed tensor systems) makes one block per
    single-site-versus-rest split."""
    size = system.dim
    if system.pure:
        return [reduce_states(system, haar_vectors(size, streams))]
    vals = None if nu is None else fixed_spectrum_values(nu, size, system.dims or (size,))
    if system.kind == "fermion":
        draws = np.empty((len(streams), size))
        gaussians = np.empty((len(streams), size, size), dtype=complex)
        for i, rng in enumerate(streams):
            if vals is None:
                draws[i] = rng.standard_exponential(size)
            gaussians[i] = complex_gaussian((size, size), rng)
        # the drawn spectrum is the joint one; rho is not solved again
        joint = (spectra_rows(flat_dirichlet_rows(draws), 1.0) if vals is None
                 else np.tile(vals, (len(streams), 1)))
        rho = fixed_spectrum_stack(unitaries_from_gaussian(gaussians), joint)
        return [reduce_states(system, rho, joint=joint)]
    gaussians = complex_gaussian_stack((size, size), streams)
    if vals is None:
        rho = hilbert_schmidt_stack(gaussians)
    else:
        rho = fixed_spectrum_stack(unitaries_from_gaussian(gaussians), vals)
    # the splits of BASIC share their state, whose spectrum is solved once
    joint = spectra_of_stack(rho, 1.0)
    return [reduce_states(system, rho, keeps, joint)
            for keeps in (_bipartitions(system.dims) if basic else [None])]


def _refuse_nu_for_pure_draws(nu: Spectrum, what: str) -> None:
    if nu is not None:
        raise ValueError(f"--nu fixes the spectrum of mixed states, but {what} "
                         "draws pure states")


def sample_bundle(system: SystemDescriptor, seed: int, trial: int,
                  nu: Spectrum = None) -> SpectraBundle:
    """Draw one state of the system and reduce it: a block of one trial.
    A state spectrum ``nu`` fixes the draw of a mixed system and is refused
    for a pure one."""
    if system.pure:
        _refuse_nu_for_pure_draws(nu, str(system))
    block = _sample_blocks(system, PhiloxStreams(seed, [trial]), nu)[0]

    def row(values, trace=1.0):
        return None if values is None else Spectrum(tuple(map(float, values[0])), trace)

    return SpectraBundle(
        sites=tuple(row(s) for s in block.sites),
        joint=row(block.joint),
        one_body=(None if block.one_body is None
                  else row(block.one_body, float(block.one_body_trace[0]))),
    )


def _draws_basic(family_id: str, system: SystemDescriptor) -> bool:
    """Whether the campaign draws BASIC's mixed states, split site by site."""
    return family_id == "BASIC" and system.kind in ("tensor", "qubits")


def _campaign_chunk(args):
    """(min slack, its lowest trial index, violations) over trials lo..hi."""
    family_id, system_str, seed, lo, hi, nu_vals, tolerance = args
    system = parse_system(system_str)
    nu = spectrum(nu_vals, 1.0) if nu_vals is not None else None
    basic = _draws_basic(family_id, system)
    size = _block_trials(system, hi - lo)
    worst, worst_trial, violations = math.inf, None, 0
    for start in range(lo, hi, size):
        trials = range(start, min(start + size, hi))
        blocks = _sample_blocks(system, PhiloxStreams(seed, trials), nu, basic)
        slack = np.min([check_block(family_id, block, tolerance).worst()
                        for block in blocks], axis=0)
        violations += int(np.count_nonzero(slack < -tolerance))
        i = int(np.argmin(slack))
        if slack[i] < worst:
            worst, worst_trial = float(slack[i]), trials[i]
    return worst, worst_trial, violations


def mc_verify(family_id: str, system, trials: int, seed: int,
              tolerance: float = 1e-10, nu: Spectrum = None,
              jobs: int = 1) -> CampaignReport:
    """Monte-Carlo soundness campaign for one family on one system.

    Deterministic per (family, system, trials, seed) and independent of the
    worker count: the min-slack/violation-count reduction is associative,
    and the worst trial is the lowest stream index reaching the minimum.
    Before sampling, it refuses a family without an inequality list
    (``Family.require_list``), a state spectrum ``nu`` when the campaign
    draws pure states, a family where ``Family.applies`` does not place it,
    but for BASIC's site-versus-rest campaign on tensor or qubit formats,
    and a negative or NaN tolerance.  BASIC's campaign draws mixed states,
    so it runs on, and its report names, the mixed twin of a pure format:
    ``sample_bundle`` on that system replays its trials.
    """
    if isinstance(system, str):
        system = parse_system(system)
    fam = get_family(family_id)
    fam.require_list()
    basic = _draws_basic(family_id, system)
    if basic:
        system = replace(system, pure=False)
    if system.pure:
        _refuse_nu_for_pure_draws(nu, f"{family_id} on {system}")
    if not (fam.applies(system) or basic):
        raise CatalogError(f"{family_id} holds for {fam.fixed or fam.scope}, "
                           f"not for {system}")
    _check_count("trials", trials)
    _check_tolerance(tolerance)
    start = time.perf_counter()
    nu_vals = None if nu is None else tuple(nu.as_floats())
    if jobs > 1 and trials >= 4 * jobs:
        bounds = np.linspace(0, trials, jobs + 1, dtype=int)
        chunks = [
            (family_id, str(system), seed, int(lo), int(hi), nu_vals, tolerance)
            for lo, hi in zip(bounds, bounds[1:])
            if hi > lo
        ]
        # At most one process per CPU, as the fork start method starts every
        # worker at the first submit; the ``jobs`` chunks, and so the
        # report, stay the same.
        with ProcessPoolExecutor(max_workers=min(jobs, os.cpu_count() or 1)) as pool:
            partials = list(pool.map(_campaign_chunk, chunks))
    else:
        partials = [_campaign_chunk(
            (family_id, str(system), seed, 0, trials, nu_vals, tolerance)
        )]
    worst, worst_trial = min(
        ((p[0], p[1]) for p in partials if p[1] is not None),
        default=(math.inf, None),
    )
    return CampaignReport(
        family_id=family_id,
        system=str(system),
        trials=trials,
        seed=seed,
        min_slack=worst,
        violations=sum(p[2] for p in partials),
        wall_time=time.perf_counter() - start,
        tolerance=tolerance,
        worst_trial=worst_trial,
    )


@dataclass(frozen=True)
class IsospectralityReport:
    formats: tuple
    trials: int
    seed: int
    max_discrepancy: float
    wall_time: float


def isospectrality_campaign(formats, trials: int, seed: int) -> IsospectralityReport:
    """Max deviation between the two marginal spectra of bipartite Haar
    states, over all formats; nonzero parts compared, trailing zeros checked.
    Trial t of the i-th format draws from stream i * trials + t.  Every
    format must have two factors and must not be mixed.
    """
    _check_count("trials", trials)
    start = time.perf_counter()
    systems = [parse_system(fmt) if isinstance(fmt, str) else fmt for fmt in formats]
    for fmt, system in zip(formats, systems):
        if len(system.dims) != 2:
            raise ValueError(f"isospectrality needs a two-factor format, got {fmt}")
        if not system.pure:
            raise ValueError(f"isospectrality draws pure states, got the mixed format {fmt}")
    worst = 0.0
    for fmt_i, system in enumerate(systems):
        k, base = min(system.dims), fmt_i * trials
        size = _block_trials(system, trials)
        for lo in range(base, base + trials, size):
            hi = min(lo + size, base + trials)
            (block,) = _sample_blocks(system, PhiloxStreams(seed, range(lo, hi)))
            sa, sb = block.sites
            worst = max(worst, np.abs(sa[:, :k] - sb[:, :k]).max(initial=0.0),
                        np.abs(sa[:, k:]).max(initial=0.0),
                        np.abs(sb[:, k:]).max(initial=0.0))
    return IsospectralityReport(
        tuple(str(f) for f in formats), trials, seed, float(worst),
        time.perf_counter() - start,
    )


@dataclass(frozen=True)
class WitnessReport:
    success: bool
    residual: float
    targets: tuple
    amplitudes: tuple = None
    restarts: int = 0


def _sorted_marginal_spectra(x: np.ndarray, dims):
    psi = x[: x.size // 2] + 1j * x[x.size // 2:]
    norm = np.linalg.norm(psi)
    if norm == 0:
        return None
    psi = psi[None] / norm
    return [np.sort(np.linalg.eigvalsh(pure_marginal_stack(psi, dims, [i])[0]))[::-1]
            for i in range(len(dims))]


def witness_search(targets, system, restarts: int = 20, iters: int = 200,
                   seed: int = 0) -> WitnessReport:
    """Best-effort search for a pure state with the given marginal spectra.

    Local minimization of the summed squared sorted-spectrum distance over
    the unit sphere with random restarts.  Success means every marginal
    matches within 1e-3 (in the summed-square residual); failure is a
    report with the best residual, never a claim of infeasibility.  The
    system must be a pure tensor or qubit format.  Each target must be a
    spectrum, checked as a fixed state spectrum is: no
    entry below -1e-12 and a unit sum within 1e-10.
    """
    from scipy.optimize import minimize

    fmt = system
    if isinstance(system, str):
        system = parse_system(system)
    if system.kind == "fermion":
        raise ValueError(f"witness needs a tensor or qubit system, got {system}")
    if not system.pure:
        raise ValueError(f"witness searches pure states, got the mixed format {fmt}")
    dims = system.dims
    goals = [np.sort(np.array(t, dtype=float))[::-1] for t in targets]
    if len(goals) != len(dims):
        raise ValueError(f"need {len(dims)} target spectra, got {len(goals)}")
    for g, d in zip(goals, dims):
        if len(g) != d:
            raise ValueError(f"target {tuple(g.tolist())} does not match site dimension {d}")
        if not (g.min() >= -1e-12 and abs(g.sum() - 1.0) <= 1e-10):
            raise ValueError(f"target {tuple(g.tolist())} is not a spectrum: its entries "
                             "must be nonnegative and sum to 1")

    size = math.prod(dims)

    def objective(x):
        specs = _sorted_marginal_spectra(x, dims)
        if specs is None:
            return 1e6
        return sum(
            float(np.sum((s - g) ** 2)) for s, g in zip(specs, goals)
        )

    best_val = math.inf
    best_x = None
    rng = rng_from_seed(seed)
    for _ in range(restarts):
        x0 = rng.standard_normal(2 * size)
        res = minimize(
            objective, x0, method="L-BFGS-B",
            options={"maxiter": iters, "ftol": 1e-16, "gtol": 1e-12},
        )
        if res.fun < best_val:
            best_val = float(res.fun)
            best_x = res.x
        if best_val < 1e-10:
            break
    residual = math.sqrt(max(best_val, 0.0))
    psi = None
    if best_x is not None:
        amps = best_x[:size] + 1j * best_x[size:]
        amps /= np.linalg.norm(amps)
        psi = tuple((float(a.real), float(a.imag)) for a in amps)
    return WitnessReport(
        success=residual < 1e-3,
        residual=residual,
        targets=tuple(tuple(float(v) for v in g) for g in goals),
        amplitudes=psi,
        restarts=restarts,
    )
