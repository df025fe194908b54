"""Operator-splitting solver for the small dense conic programs used here.

The compiled problem is ``min c.x  s.t.  A x = b, x in K`` where K is a
product of PSD cones (in Hermitian coordinates), free subspaces, and
lower-bounded scalars.  A block's coordinates are the Hermitian coordinates
of its symmetry sectors (see ``problem``), so a block with sectors is solved
on sum_s m_s^2 coordinates instead of dim^2.  A is built by rows: each
term's adjoint map takes ``CHUNK`` target basis matrices at a time to block
matrices G, read in each sector as Q^dag G Q.  An ADMM iteration T maps the
state y = (z, u) through projections onto the affine set (a cached
pseudo-inverse of A) and onto K (one batched ``eigh`` per sector size), with
over-relaxation 1.5.  T is evaluated at points chosen by safeguarded type-II
Anderson acceleration, as in SCS 3: a point whose residual ||T(y) - y|| tops
``ANDERSON_GUARD`` times the best so far is rejected for the plain image of
the last accepted point, which clears the memory.  The loop tests and returns
the plain image, which lies in K.  Everything is plain numpy; identical inputs
give identical iterates.

``solve`` ends in one of three statuses:

* ``optimal``: the primal and dual residuals of the plain image are within
  ``tol``, and so is the affine point's residual ``||A x - b||``;
* ``infeasible``: the linear constraints ``A x = b`` are inconsistent, found
  before the first iteration from the least-squares residual, which the
  diagnostics record as ``linear_residual``;
* ``max_iters``: neither, after ``max_iters`` iterations.  A conically
  infeasible program with consistent linear constraints ends here.

``SdpSolution.diagnostics`` records the compile, factorization and iteration
wall times, the coordinate and row counts, each block's sector sizes, the
termination reason and the acceleration's step and rejection counts; a solve
that runs the loop adds ``dual_objective``, read off its final scaled dual.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from ..operators import Operator, check_memory
from .problem import BlockVar, HermitianBasis, ScalarVar, SdpProblem, SdpSolution

DEFAULT_TOL = 1e-7
DEFAULT_MAX_ITERS = 10_000
OVER_RELAXATION = 1.5
CHECK_EVERY = 25
CHUNK = 16
ANDERSON_MEMORY = 10
ANDERSON_GUARD = 10.0
ANDERSON_REG = 1e-10


@dataclass
class _Compiled:
    A: np.ndarray
    b: np.ndarray
    c: np.ndarray
    sections: list  # ("psd", coordinates, sector size) | ("lower", offset, bound)
    layout: dict    # var name -> (offset, BlockVar or None)
    n: int


def program_bytes(n: int, block_dim: int, target_dims: tuple[int, ...]) -> int:
    """Bytes of the solver arrays of a program of n coordinates, largest block side
    ``block_dim`` and constraint targets ``target_dims``: the real m x n system A and
    its stacked rows, the thin SVD of A with a scaled copy of V^T, the n x m
    pseudo-inverse, 2 ``ANDERSON_MEMORY`` vectors of the 2n-long ADMM state and one
    ``CHUNK`` of rows (the adjoint images in the largest block, a sector's gather of
    them, four of the largest target's matrices: the basis and pushforward temporaries)."""
    m = sum(t * t for t in target_dims)
    r = min(m, n)
    chunk = 16 * CHUNK * (2 * block_dim ** 2 + 4 * max(target_dims) ** 2)
    return 8 * (2 * m * n + r * (m + 1 + 2 * n) + 4 * ANDERSON_MEMORY * n) + chunk


def check_program_memory(name: str, blocks: list[BlockVar], scalars: list[ScalarVar],
                         target_dims: tuple[int, ...]) -> None:
    """Refuse a program whose ``program_bytes`` overrun the memory budget; ``target_dims``
    gives each constraint's target dimension (1 for a scalar), in declaration order."""
    n = sum(b.size for b in blocks) + len(scalars)
    check_memory(program_bytes(n, max(b.dim for b in blocks), target_dims), f"program {name}")


def _psd_sections(blk: BlockVar, offset: int) -> list:
    """Cone sections of a PSD block, one per sector size m: the coordinates of
    its sectors of that size, a slice for a lone sector, else a (g, m^2) index."""
    starts: dict[int, list[int]] = {}
    for sector in blk.parts():
        starts.setdefault(sector.size, []).append(offset)
        offset += sector.size ** 2
    return [("psd", slice(group[0], group[0] + m * m) if len(group) == 1
             else np.add.outer(group, np.arange(m * m)), m)
            for m, group in sorted(starts.items())]


def _block_matrix(blk: BlockVar, x: np.ndarray) -> np.ndarray:
    """The dim x dim matrix sum_s Q_s B_s Q_s^dag of the block's coordinates ``x``."""
    h = 0
    for s in blk.parts():
        size = s.size * s.size
        h = h + s.embed(HermitianBasis(s.size).from_coords(x[:size]), blk.dim)
        x = x[size:]
    return (h + h.conj().T) / 2  # exact no-op on one dense sector


def compile_problem(p: SdpProblem) -> _Compiled:
    layout: dict[str, tuple[int, BlockVar | None]] = {}
    sections = []
    offset = 0
    for blk in p.blocks:
        layout[blk.name] = (offset, blk)
        if blk.psd:
            sections += _psd_sections(blk, offset)
        offset += blk.size
    for sc in p.scalars:
        layout[sc.name] = (offset, None)
        if sc.lower is not None:
            sections.append(("lower", offset, sc.lower))
        offset += 1
    n = offset

    rows_a: list[np.ndarray] = []
    rows_b: list[np.ndarray] = []
    for con in p.constraints:
        tgt = np.atleast_2d(con.target)  # a float target is the 1 x 1 case
        basis_out = HermitianBasis(tgt.shape[0])
        block_rows = np.zeros((basis_out.size, n))
        for start in range(0, basis_out.size, CHUNK):
            stop = min(start + CHUNK, basis_out.size)
            outputs = basis_out.basis_batch(start, stop)
            for term in con.terms:
                off, blk = layout[term.var]
                if blk is None:
                    block_rows[start:stop, off] += \
                        basis_out.to_coords(term.scalar_coeff_op)[start:stop]
                    continue
                images = term.adjoint(outputs)
                for sector in blk.parts():
                    size = sector.size ** 2
                    block_rows[start:stop, off:off + size] += \
                        HermitianBasis(sector.size).to_coords(sector.restrict(images))
                    off += size
                del images  # before the next adjoint call, so one chunk of images is held
        rows_a.append(block_rows)
        rows_b.append(basis_out.to_coords(tgt))
    A = np.vstack(rows_a) if rows_a else np.zeros((0, n))
    b = np.concatenate(rows_b) if rows_b else np.zeros(0)

    c = np.zeros(n)
    for var, coeff in p.objective.items():
        c[layout[var][0]] = float(coeff)
    return _Compiled(A=A, b=b, c=c, sections=sections, layout=layout, n=n)


def _project_psd(h: np.ndarray) -> np.ndarray:
    """Nearest PSD matrix to each Hermitian matrix of ``h`` (..., d, d) in
    Frobenius norm.

    LAPACK's complex divide-and-conquer driver can fail to converge on an
    exactly Hermitian input.  The real symmetric embedding
    [[Re h, -Im h], [Im h, Re h]] has the same spectrum, each eigenvalue
    doubled, and its projection is the embedding of h's projection, so the
    result is read back from its first block column.
    """
    try:
        return _clip_spectrum(h)
    except np.linalg.LinAlgError:
        d = h.shape[-1]
        p = _clip_spectrum(np.concatenate([
            np.concatenate([h.real, -h.imag], axis=-1),
            np.concatenate([h.imag, h.real], axis=-1)], axis=-2))
        return p[..., :d, :d] + 1j * p[..., d:, :d]


def _clip_spectrum(h: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(h)
    return (vecs * np.clip(vals, 0.0, None)[..., None, :]) @ vecs.conj().swapaxes(-1, -2)


def _project_cone(w: np.ndarray, sections: list) -> np.ndarray:
    z = w.copy()
    for kind, sel, extra in sections:
        if kind == "lower":
            z[sel] = max(w[sel], extra)
        elif extra == 1:
            z[sel] = np.maximum(w[sel], 0.0)
        else:
            basis = HermitianBasis(extra)
            z[sel] = basis.to_coords(_project_psd(basis.from_coords(w[sel])))
    return z


class _Anderson:
    """Acceleration state of one ``solve`` loop (Zhang, O'Donoghue & Boyd, SIAM J.
    Optim. 30, 2020): with dY, dF the last differences of the points and of their
    residuals f, it steps to T(y) - (dY + dF) gamma, gamma = argmin ||f - dF gamma||."""

    def __init__(self):
        self.history: deque = deque(maxlen=ANDERSON_MEMORY)  # (dy, df) pairs
        self.accepted = self.rejected = 0
        self.last, self.best, self.guarded = None, np.inf, False

    def restart(self, y: np.ndarray) -> np.ndarray:
        """Clear the memory; ``y``, a plain image, is the next point."""
        self.history.clear()
        self.last, self.best, self.guarded = None, np.inf, False
        return y

    def step(self, y: np.ndarray, ty: np.ndarray) -> np.ndarray:
        """The next point to evaluate, given ``ty = T(y)``."""
        f = ty - y
        res = np.linalg.norm(f)
        if self.guarded and not res <= ANDERSON_GUARD * self.best:  # NaN too
            self.rejected += 1
            return self.restart(self.last[2])
        self.accepted += self.guarded
        self.best = min(self.best, res)
        if self.last is not None:
            self.history.append((y - self.last[0], f - self.last[1]))
        self.last, self.guarded = (y, f, ty), bool(self.history)
        if not self.guarded:
            return ty
        dy, df = (np.array(v) for v in zip(*self.history))
        gram = df @ df.T  # Tikhonov-regularized; with every df = 0, gamma = 0
        gamma = np.linalg.solve(
            gram + (ANDERSON_REG * np.trace(gram) or 1.0) * np.eye(len(gram)), df @ f)
        return ty - (dy + df).T @ gamma


def solve(p: SdpProblem, tol: float = DEFAULT_TOL,
          max_iters: int = DEFAULT_MAX_ITERS) -> SdpSolution:
    """Solve the program; status is one of optimal / infeasible / max_iters."""
    if not tol > 0:  # no iterate meets a tolerance of 0, and NaN compares false
        raise ValueError(f"solver tolerance must be positive, got {tol}")
    t_start = perf_counter()
    comp = compile_problem(p)
    t_compiled = perf_counter()
    A, b, c = comp.A, comp.b, comp.c
    n = comp.n
    diagnostics = {"compile_s": t_compiled - t_start, "coordinates": n,
                   "rows": A.shape[0],
                   "sector_sizes": {blk.name: [s.size for s in blk.parts()]
                                    for blk in p.blocks}}

    u_svd, s_svd, vt_svd = np.linalg.svd(A, full_matrices=False)
    keep = s_svd > max(1e-12 * s_svd.max(initial=0.0), 1e-300)
    pinv = (vt_svd[keep].T / s_svd[keep]) @ u_svd[:, keep].T  # (n, m)
    x_ls = pinv @ b
    lin_res = np.linalg.norm(A @ x_ls - b) / (1.0 + np.linalg.norm(b))
    if lin_res > 1e-7:
        diagnostics.update(factor_s=perf_counter() - t_compiled, iterate_s=0.0,
                           reason="equality constraints inconsistent",
                           linear_residual=float(lin_res))
        return _extract(p, comp, x_ls, status="infeasible",
                        primal=lin_res, dual=0.0, iterations=0,
                        diagnostics=diagnostics)
    t_factored = perf_counter()
    diagnostics["factor_s"] = t_factored - t_compiled

    y = ty = np.zeros(2 * n)  # the ADMM state (z, u), u the scaled dual
    accel = _Anderson()
    rp = rd = np.inf
    it = 0
    status = reason = "max_iters"
    while it < max_iters:
        it += 1
        z, u = y[:n], y[n:]
        w = z - u - c
        x = w - pinv @ (A @ w - b)
        xr = OVER_RELAXATION * x + (1.0 - OVER_RELAXATION) * z
        z_next = _project_cone(xr + u, comp.sections)
        ty = np.concatenate([z_next, u + xr - z_next])
        y = accel.step(y, ty)

        if it % CHECK_EVERY == 0 or it == max_iters:
            scale = 1.0 + max(np.linalg.norm(x), np.linalg.norm(z_next))
            rp = np.linalg.norm(x - z_next) / scale
            rd = np.linalg.norm(z_next - z) / (1.0 + np.linalg.norm(ty[n:]))
            # a huge scaled dual can round b out of A w - b, leaving x unprojected
            if max(rp, rd) <= tol and \
                    np.linalg.norm(A @ x - b) <= tol * (1.0 + np.linalg.norm(b)):
                status, reason = "optimal", "tolerance reached"
                break

    # The dual point (O'Donoghue et al., JOTA 169, 2016): by Moreau, u+ = u + x_r - z+ is the
    # polar-cone projection of x_r + u, so s = -u+ lies in K*; y = pinv^T (c + u+) gives
    # c - A^T y = s at a fixed point.  Objective: b.y = x_ls.(c + u+), + bound * s ("lower").
    u = ty[n:]
    dual_obj = x_ls @ (c + u) - sum(bound * u[sel] for kind, sel, bound in comp.sections
                                    if kind == "lower")
    diagnostics.update(iterate_s=perf_counter() - t_factored, reason=reason,
                       accelerated_steps=accel.accepted, safeguard_rejections=accel.rejected,
                       dual_objective=float(dual_obj))
    return _extract(p, comp, ty[:n], status=status, primal=float(rp), dual=float(rd),
                    iterations=it, diagnostics=diagnostics)


def _extract(p: SdpProblem, comp: _Compiled, xvec: np.ndarray, status: str,
             primal: float, dual: float, iterations: int,
             diagnostics: dict) -> SdpSolution:
    variables: dict = {}
    for name, (off, blk) in comp.layout.items():
        if blk is None:
            variables[name] = float(xvec[off])
        else:
            variables[name] = Operator(_block_matrix(blk, xvec[off:off + blk.size]))
    return SdpSolution(status=status, objective_value=float(comp.c @ xvec), variables=variables,
                       primal_residual=primal, dual_residual=dual,
                       iterations=iterations, name=p.name,
                       diagnostics=diagnostics)
