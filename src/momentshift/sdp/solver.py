"""Operator-splitting solver for the small dense conic programs used here.

The compiled problem is ``min c.x  s.t.  A x = b, x in K`` where K is a
product of PSD cones (in Hermitian coordinates), free subspaces, and
lower-bounded scalars.  A block's coordinates are the dim^2 Hermitian
coordinates of its matrix (see ``problem``).  A is filled in place by rows:
each term's adjoint map takes ``CHUNK`` target basis matrices at a time to
block matrices, and their coordinates are those rows' entries in the block's
columns.  An ADMM iteration T maps the state y = (z, u) through projections
onto the affine set (a cached pseudo-inverse of A) and onto K (one ``eigh``
per PSD block), with over-relaxation 1.5.  T is evaluated at points chosen
by safeguarded type-II Anderson acceleration, as in SCS 3: a point whose
residual ||T(y) - y|| tops ``ANDERSON_GUARD`` times the best so far is
rejected for the plain image of the last accepted point, which clears the
memory.  The loop tests and returns the plain image, which lies in K.  Everything is plain numpy; identical inputs
give identical iterates.

``solve`` ends in one of three statuses:

* ``optimal``: the primal and dual residuals of the plain image are within
  ``TOL``, and so is the affine point's residual ``||A x - b||``;
* ``infeasible``: the linear constraints ``A x = b`` are inconsistent, found
  before the first iteration from the least-squares residual, which the
  diagnostics record as ``linear_residual``;
* ``max_iters``: neither, after ``max_iters`` iterations.  A conically
  infeasible program with consistent linear constraints ends here.

``SdpSolution.diagnostics`` records the compile, factorization and iteration
wall times, the coordinate and row counts, the termination reason and the
acceleration's step and rejection counts; a solve that runs the loop adds
``dual_objective``, read off its final scaled dual.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from ..operators import Operator, check_memory
from .problem import BlockVar, HermitianBasis, ScalarVar, SdpProblem, SdpSolution

TOL = 1e-7
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
    sections: list  # ("psd", coordinate slice, block side) | ("lower", offset, bound)
    layout: dict    # var name -> (offset, BlockVar or None)
    n: int


def check_program_memory(name: str, blocks: list[BlockVar], scalars: list[ScalarVar],
                         target_dims: tuple[int, ...]) -> None:
    """Refuse a program whose solver arrays overrun the memory budget; ``target_dims``
    gives each constraint's target dimension (1 for a scalar), in declaration order.
    With n coordinates and m rows the arrays are the real m x n system A and the SVD's
    copy of it, the thin SVD of A with a scaled copy of V^T, the n x m pseudo-inverse,
    2 ``ANDERSON_MEMORY`` vectors of the 2n-long ADMM state and one ``CHUNK`` of rows
    (the adjoint images in the largest block and their coordinates, four of the largest
    target's matrices: the basis and pushforward temporaries)."""
    n = sum(b.size for b in blocks) + len(scalars)
    m = sum(t * t for t in target_dims)
    r = min(m, n)
    chunk = 16 * CHUNK * (2 * max(b.dim for b in blocks) ** 2 + 4 * max(target_dims) ** 2)
    check_memory(8 * (2 * m * n + r * (m + 1 + 2 * n) + 4 * ANDERSON_MEMORY * n) + chunk,
                 f"program {name}")


def compile_problem(p: SdpProblem) -> _Compiled:
    layout: dict[str, tuple[int, BlockVar | None]] = {}
    sections = []
    offset = 0
    for blk in p.blocks:
        layout[blk.name] = (offset, blk)
        if blk.psd:
            sections.append(("psd", slice(offset, offset + blk.size), blk.dim))
        offset += blk.size
    for sc in p.scalars:
        layout[sc.name] = (offset, None)
        if sc.lower is not None:
            sections.append(("lower", offset, sc.lower))
        offset += 1
    n = offset

    targets = [np.atleast_2d(con.target) for con in p.constraints]  # a float is 1 x 1
    A = np.zeros((sum(t.shape[0] ** 2 for t in targets), n))
    b = np.zeros(len(A))
    row = 0
    for con, tgt in zip(p.constraints, targets):
        basis_out = HermitianBasis(tgt.shape[0])
        b[row:row + basis_out.size] = basis_out.to_coords(tgt)
        for start in range(0, basis_out.size, CHUNK):
            stop = min(start + CHUNK, basis_out.size)
            rows = A[row + start:row + stop]
            outputs = basis_out.basis_batch(start, stop)
            for term in con.terms:
                off, blk = layout[term.var]
                if blk is None:
                    rows[:, off] += basis_out.to_coords(term.scalar_coeff_op)[start:stop]
                else:  # one chunk of adjoint images is held at a time
                    rows[:, off:off + blk.size] += \
                        HermitianBasis(blk.dim).to_coords(term.adjoint(outputs))
        row += basis_out.size

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


def solve(p: SdpProblem, max_iters: int = DEFAULT_MAX_ITERS) -> SdpSolution:
    """Solve the program; status is one of optimal / infeasible / max_iters."""
    t_start = perf_counter()
    comp = compile_problem(p)
    t_compiled = perf_counter()
    A, b, c = comp.A, comp.b, comp.c
    n = comp.n
    diagnostics = {"compile_s": t_compiled - t_start, "coordinates": n,
                   "rows": A.shape[0]}

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
            if max(rp, rd) <= TOL and \
                    np.linalg.norm(A @ x - b) <= TOL * (1.0 + np.linalg.norm(b)):
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
            variables[name] = Operator(HermitianBasis(blk.dim).from_coords(
                xvec[off:off + blk.size]))
    return SdpSolution(status=status, objective_value=float(comp.c @ xvec), variables=variables,
                       primal_residual=primal, dual_residual=dual,
                       iterations=iterations, name=p.name,
                       diagnostics=diagnostics)
