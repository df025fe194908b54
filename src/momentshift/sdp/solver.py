"""Operator-splitting solver for the small dense conic programs used here.

The compiled problem is ``min c.x  s.t.  A x = b, x in K`` where K is a
product of PSD cones (in Hermitian coordinates), free subspaces, and
lower-bounded scalars.  Iterations alternate a projection onto the affine
set (through a cached pseudo-inverse of A) with a projection onto K
(Hermitian eigendecomposition per block), with over-relaxation 1.5 and a
deterministic residual-balancing penalty update.  Everything is plain
numpy; identical inputs give identical iterates.

Infeasibility is reported in two ways: inconsistent linear constraints are
detected up front from the least-squares residual of ``A x = b``; conic
infeasibility is flagged when the consensus residual stops improving over a
5000-iteration window while the scaled dual vector keeps growing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..operators import Operator, check_memory
from .problem import BlockVar, HermitianBasis, ScalarVar, SdpProblem, SdpSolution

DEFAULT_TOL = 1e-7
DEFAULT_MAX_ITERS = 200_000
OVER_RELAXATION = 1.5
CHECK_EVERY = 25
PENALTY_EVERY = 2000
STALL_WINDOW = 5000
CHUNK = 256


@dataclass
class _Compiled:
    A: np.ndarray
    b: np.ndarray
    c: np.ndarray
    sections: list  # (kind, offset, size, extra)
    layout: dict    # var name -> (offset, size, dim or None)
    n: int


def check_program_memory(name: str, blocks: list[BlockVar], scalars: list[ScalarVar],
                         target_dims: tuple[int, ...]) -> None:
    """Refuse a program whose solver arrays overrun the memory budget: the real
    m x n system A and its stacked rows, the thin SVD of A with a scaled copy of
    V^T, the n x m pseudo-inverse and one ``CHUNK`` of basis matrices of the
    largest block.  ``target_dims`` gives each constraint's target dimension
    (1 for a scalar target), in the order the constraints are declared."""
    n = sum(b.dim * b.dim for b in blocks) + len(scalars)
    m = sum(t * t for t in target_dims)
    r = min(m, n)
    chunk = 16 * CHUNK * max(b.dim for b in blocks) ** 2
    check_memory(8 * (2 * m * n + r * (m + 1 + 2 * n)) + chunk, f"program {name}")


def compile_problem(p: SdpProblem) -> _Compiled:
    layout: dict[str, tuple[int, int, int | None]] = {}
    sections = []
    offset = 0
    for blk in p.blocks:
        size = blk.dim * blk.dim
        layout[blk.name] = (offset, size, blk.dim)
        sections.append(("psd" if blk.psd else "free", offset, size, blk.dim))
        offset += size
    for sc in p.scalars:
        layout[sc.name] = (offset, 1, None)
        if sc.lower is None:
            sections.append(("free", offset, 1, None))
        else:
            sections.append(("lower", offset, 1, sc.lower))
        offset += 1
    n = offset

    rows_a: list[np.ndarray] = []
    rows_b: list[np.ndarray] = []
    for con in p.constraints:
        scalar_target = np.isscalar(con.target)
        if scalar_target:
            m_rows = 1
            tgt = np.array([float(con.target)])
        else:
            tgt = np.asarray(con.target)
            basis_out = HermitianBasis(tgt.shape[0])
            m_rows = basis_out.size
            tgt = basis_out.to_coords(tgt)
        block_rows = np.zeros((m_rows, n))
        for term in con.terms:
            off, size, dim = layout[term.var]
            if dim is not None:
                basis_in = HermitianBasis(dim)
                for start in range(0, size, CHUNK):
                    stop = min(start + CHUNK, size)
                    batch = basis_in.basis_batch(start, stop)
                    out = term.block_map(batch)
                    if scalar_target:
                        block_rows[0, off + start:off + stop] += np.real(out)
                    else:
                        block_rows[:, off + start:off + stop] += \
                            basis_out.to_coords(out).T
            elif scalar_target:
                block_rows[0, off] += term.scalar_coeff
            else:
                block_rows[:, off] += basis_out.to_coords(term.scalar_coeff_op)
        rows_a.append(block_rows)
        rows_b.append(tgt)
    A = np.vstack(rows_a) if rows_a else np.zeros((0, n))
    b = np.concatenate(rows_b) if rows_b else np.zeros(0)

    c = np.zeros(n)
    for var, coeff in p.objective.items():
        off, size, dim = layout[var]
        if dim is None:
            c[off] = float(coeff)
        else:
            c[off:off + size] = HermitianBasis(dim).to_coords(np.asarray(coeff))
    if p.maximize:
        c = -c
    return _Compiled(A=A, b=b, c=c, sections=sections, layout=layout, n=n)


def _project_psd(h: np.ndarray) -> np.ndarray:
    """Nearest PSD matrix to the Hermitian ``h`` in Frobenius norm.

    LAPACK's complex divide-and-conquer driver can fail to converge on an
    exactly Hermitian input.  The real symmetric embedding
    [[Re h, -Im h], [Im h, Re h]] has the same spectrum, each eigenvalue
    doubled, and its projection is the embedding of h's projection, so the
    result is read back from its first block column.
    """
    try:
        return _clip_spectrum(h)
    except np.linalg.LinAlgError:
        d = h.shape[0]
        p = _clip_spectrum(np.block([[h.real, -h.imag], [h.imag, h.real]]))
        return p[:d, :d] + 1j * p[d:, :d]


def _clip_spectrum(h: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(h)
    return (vecs * np.clip(vals, 0.0, None)) @ vecs.conj().T


def _project_cone(w: np.ndarray, sections: list) -> np.ndarray:
    z = w.copy()
    for kind, off, size, extra in sections:
        if kind == "psd":
            basis = HermitianBasis(extra)
            h = basis.from_coords(w[off:off + size])
            z[off:off + size] = basis.to_coords(_project_psd(h))
        elif kind == "lower":
            z[off] = max(w[off], extra)
    return z


def solve(p: SdpProblem, tol: float = DEFAULT_TOL,
          max_iters: int = DEFAULT_MAX_ITERS) -> SdpSolution:
    """Solve the program; status is one of optimal / infeasible / max_iters."""
    comp = compile_problem(p)
    A, b, c = comp.A, comp.b, comp.c
    n = comp.n

    if A.shape[0]:
        u_svd, s_svd, vt_svd = np.linalg.svd(A, full_matrices=False)
        keep = s_svd > max(1e-12 * s_svd[0], 1e-300)
        pinv = (vt_svd[keep].T / s_svd[keep]) @ u_svd[:, keep].T  # (n, m)

        def proj_affine(w: np.ndarray) -> np.ndarray:
            return w - pinv @ (A @ w - b)

        x_ls = pinv @ b
        lin_res = np.linalg.norm(A @ x_ls - b) / (1.0 + np.linalg.norm(b))
        if lin_res > 1e-7:
            return _extract(p, comp, x_ls, status="infeasible",
                            primal=lin_res, dual=0.0, iterations=0,
                            diagnostics={"reason": "equality constraints inconsistent",
                                         "linear_residual": float(lin_res)})
    else:
        def proj_affine(w: np.ndarray) -> np.ndarray:
            return w

    sigma = 1.0
    x = np.zeros(n)
    z = np.zeros(n)
    u = np.zeros(n)
    rp = rd = np.inf
    best_res = np.inf
    window_best = np.inf
    window_prev_best = np.inf
    window_u0 = 0.0
    it = 0
    status = "max_iters"
    while it < max_iters:
        it += 1
        x = proj_affine(z - u - c / sigma)
        xr = OVER_RELAXATION * x + (1.0 - OVER_RELAXATION) * z
        z_prev = z
        z = _project_cone(xr + u, comp.sections)
        u = u + xr - z

        if it % CHECK_EVERY == 0 or it == max_iters:
            scale = 1.0 + max(np.linalg.norm(x), np.linalg.norm(z))
            rp = np.linalg.norm(x - z) / scale
            rd = sigma * np.linalg.norm(z - z_prev) / (1.0 + sigma * np.linalg.norm(u))
            res = max(rp, rd)
            best_res = min(best_res, res)
            window_best = min(window_best, res)
            if res <= tol:
                status = "optimal"
                break
            if it % PENALTY_EVERY == 0 and rd > 0:
                if rp > 10.0 * rd and sigma < 1e4:
                    sigma *= 2.0
                    u = u / 2.0
                elif rd > 10.0 * rp and sigma > 1e-4:
                    sigma /= 2.0
                    u = u * 2.0
            if it % STALL_WINDOW == 0:
                u_norm = np.linalg.norm(u)
                stalled = window_best >= window_prev_best * (1.0 - 1e-3)
                growing = u_norm > 1.2 * max(window_u0, 1e-9)
                if stalled and growing and window_best > 10.0 * tol \
                        and np.isfinite(window_prev_best):
                    status = "infeasible"
                    break
                window_prev_best = window_best
                window_best = np.inf
                window_u0 = u_norm

    return _extract(p, comp, z, status=status, primal=float(rp), dual=float(rd),
                    iterations=it)


def _extract(p: SdpProblem, comp: _Compiled, xvec: np.ndarray, status: str,
             primal: float, dual: float, iterations: int,
             diagnostics: dict | None = None) -> SdpSolution:
    variables: dict = {}
    for name, (off, size, dim) in comp.layout.items():
        if dim is None:
            variables[name] = float(xvec[off])
        else:
            h = HermitianBasis(dim).from_coords(xvec[off:off + size])
            variables[name] = Operator(h)
    obj = float(comp.c @ xvec)
    if p.maximize:
        obj = -obj
    return SdpSolution(status=status, objective_value=obj, variables=variables,
                       primal_residual=primal, dual_residual=dual,
                       iterations=iterations, name=p.name,
                       diagnostics=diagnostics or {})
