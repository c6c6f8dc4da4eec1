"""Dense complex linear algebra helpers shared across the package.

Everything here works on plain numpy arrays.  Subspaces are always handled
algebraically (rank-revealing factorizations, exact range sums and
intersections), never iteratively.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

COMPLEX = np.complex128


def asmatrix(a) -> np.ndarray:
    m = np.asarray(a, dtype=COMPLEX)
    if m.ndim != 2:
        raise ValueError(f"expected a matrix, got shape {m.shape}")
    return m


def dagger(a: np.ndarray) -> np.ndarray:
    """Adjoint of a matrix, or of each matrix of a stack."""
    return np.conjugate(np.swapaxes(a, -1, -2))


def opnorm(a) -> float:
    """Operator norm (largest singular value); 0.0 for empty matrices."""
    return float(opnorms(np.atleast_2d(np.asarray(a, dtype=COMPLEX))[None])[0])


def opnorms(stack) -> np.ndarray:
    """Operator norms of a stack of matrices, by one batched SVD; the
    modulus for 1 x 1 matrices, which a batched SVD does not reproduce."""
    a = np.asarray(stack, dtype=COMPLEX)
    if not a.size:
        return np.zeros(len(a))
    if a.shape[-2:] == (1, 1):
        return np.hypot(a.real, a.imag)[..., 0, 0]
    return np.linalg.norm(a, 2, axis=(-2, -1))


def worst(residuals, witness: Callable[[int], str] | None = None) -> tuple[float, str]:
    """The first strict maximum of `residuals` and `witness` of its index
    alone ("" without one), as a sweep keeping each residual above the
    running worst finds them; (0.0, "") when no residual is positive."""
    r = np.asarray(residuals, dtype=float).ravel()
    r = np.where(r > 0.0, r, 0.0)  # NaN is never above the running worst
    if not r.any():
        return 0.0, ""
    i = int(np.argmax(r))
    return float(r[i]), witness(i) if witness else ""


def side_by_side(stack: np.ndarray) -> np.ndarray:
    """A (n, rows, cols) stack as one rows x (n * cols) matrix, block-major."""
    n, rows, cols = stack.shape
    return stack.transpose(1, 0, 2).reshape(rows, n * cols)


def pair_blocks(stack: np.ndarray) -> np.ndarray:
    """Inner products ``F_i* F_j`` of every pair of a (n, rows, k) stack, as
    an (n, n, k, k) view of the GEMM ``X^T conj(X)`` of its side-by-side
    columns X: the Gram matrix ``X* X`` transposed, in the operand order
    whose rounding the einsum ``iak,jal->ijkl`` had at any thread count."""
    n, _, k = stack.shape
    x = side_by_side(stack)
    return (x.T @ np.conjugate(x)).reshape(n, k, n, k).transpose(2, 0, 3, 1)


def worst_block(blocks: np.ndarray) -> tuple[float, tuple[int, int] | None]:
    """Largest operator norm among the k x k blocks of an (n, m, k, k) array,
    with the row-major index of the first block attaining it (None when every
    entry is zero).

    Blocks are screened by their largest entry: the operator norm of a k x k
    block lies between that and k times it, so only blocks within a factor k
    of the leader need their exact norm, taken in one batched call.
    """
    if not blocks.any():
        return 0.0, None
    k = blocks.shape[-1]
    entry_max = np.abs(blocks).max(axis=(2, 3))
    top = float(entry_max.max())
    rows, cols = np.nonzero(entry_max >= top / k)
    norms = np.linalg.norm(blocks[rows, cols], 2, axis=(-2, -1))
    best = int(np.argmax(norms))
    return float(norms[best]), (int(rows[best]), int(cols[best]))


def projector_defect(p: np.ndarray) -> np.ndarray:
    """How far each matrix of a stack is from being an orthogonal projector:
    max of the idempotence and Hermiticity residuals in operator norm."""
    p = np.asarray(p, dtype=COMPLEX)
    return np.maximum(opnorms(p @ p - p), opnorms(p - dagger(p)))


def hermitize(a: np.ndarray) -> np.ndarray:
    return (a + dagger(a)) / 2.0


class Cholesky(NamedTuple):
    """The uncut factor G ~ L L* that `pivoted_cholesky` or `stack_factor`
    returns."""

    rows: np.ndarray  # (rank, N): row k is the factor's column k, G ~ rows.T conj(rows)
    values: np.ndarray  # eigenvalues of L* L, descending
    u: np.ndarray  # (rank, rank) their orthonormal eigenvectors
    residual: float  # certified bound on the 2-norm of G - L L*
    hermitian_defect: float  # largest entry of |G - G*|


class Eigencut(NamedTuple):
    """The rank-revealing eigendecomposition `eigencut` returns."""

    values: np.ndarray  # kept eigenvalues, descending
    vectors: np.ndarray  # (N, rank) orthonormal eigenvectors of `values`
    dropped: np.ndarray  # factored eigenvalues below the cut, then -residual
    residual: float  # certified bound on the 2-norm of G - L L*
    hermitian_defect: float  # largest entry of |G - G*|


def pivoted_cholesky(gram: np.ndarray) -> Cholesky:
    """One pivoted Cholesky factor G ~ L L* of the Hermitian part of a PSD
    matrix G, and the eigendecomposition of L* L.

    The factor pivots on the largest remaining diagonal (the lowest index on
    ties) and stops once that diagonal is at most ``N * eps`` times the
    largest diagonal of G: O(N r^2) for rank r, against O(N^3) for a dense
    eigensolve (Harbrecht, Peters and Schneider, Appl. Numer. Math. 62
    (2012) 428-440).  One r x r eigendecomposition ``L* L = U diag(lam) U*``
    then gives the eigenvalues of L L*, whose eigenvectors are
    ``L U lam^-1/2``.

    `residual` bounds the 2-norm of the Hermitian residual R = G - L L* by
    the smaller of its Frobenius norm and its largest absolute row sum, so
    ``lambda_min(G) >= -residual``.  The same block pass reads
    `hermitian_defect`, the largest entry of ``|G - G*|``, which the factor
    of the Hermitian part cannot see: every entry of G is that of L L* to
    within ``residual + hermitian_defect / 2``.
    """
    g = asmatrix(gram)
    n = g.shape[0]
    diag = np.real(g.diagonal()).copy()
    floor = n * np.finfo(float).eps * float(diag.max(initial=0.0))
    rows = np.empty((min(n, 16), n), dtype=COMPLEX)  # row k: factor column k
    rank = 0
    while rank < n:
        i = int(np.argmax(diag))
        if not diag[i] > floor:
            break
        if rank == rows.shape[0]:
            rows = np.concatenate([rows, np.empty_like(rows)])
        col = (g[:, i] + np.conjugate(g[i])) / 2
        col -= rows[:rank].T @ np.conjugate(rows[:rank, i])
        col /= np.sqrt(diag[i])
        rows[rank] = col
        diag -= col.real**2 + col.imag**2
        diag[i] = -np.inf  # pivoted
        rank += 1
    rows = rows[:rank]
    residual, defect = _residual_bound(g, rows)
    vals, u = np.linalg.eigh(hermitize(np.conjugate(rows) @ rows.T))  # ascending
    return Cholesky(rows, vals[::-1], u[:, ::-1], residual, defect)


def stack_factor(columns: np.ndarray, gram: np.ndarray) -> Cholesky:
    """The factor of the Gram matrix ``G = X* X`` of the columns X, read off
    the thin SVD ``X = W diag(s) Vh``: ``L = X* W``, the coordinates of each
    column in the left singular basis, so L* L is ``diag(s^2)`` to rounding
    (u = I).

    Its small directions see the conditioning of X, where a factor of G sees
    that of G, its square (Golub and Van Loan, section 5.3).  Each column's
    coordinates carry the rounding of its own norm, where those of the equal
    ``diag(s) Vh`` carry that of the largest singular value.  `residual` and
    `hermitian_defect` certify L against `gram`, the matrix the caller holds,
    as `pivoted_cholesky` does.
    """
    x = asmatrix(columns)
    w, s, _ = np.linalg.svd(x, full_matrices=False)
    rows = np.conjugate(dagger(w) @ x)
    residual, defect = _residual_bound(asmatrix(gram), rows)
    return Cholesky(rows, s * s, np.eye(s.size, dtype=COMPLEX), residual, defect)


def eigencut(factor: Cholesky, rel_tol: float) -> Eigencut:
    """The eigendecomposition of L L* for a `pivoted_cholesky` or
    `stack_factor` factor, cut at a relative eigenvalue.

    Eigenvalues below ``rel_tol * max(eigenvalue)`` are treated as zero;
    each kept eigenvector is phase-fixed so that its first significant
    component is real positive.  `dropped` ends with ``-residual``: the
    least value of ``values`` and ``dropped`` together bounds the least
    eigenvalue of G from below, which is how positivity reads it.
    """
    rows, vals, u = factor.rows, factor.values, factor.u
    keep = vals > rel_tol * (vals[0] if vals.size else 0.0)  # L* L is PSD
    vecs = (rows.T @ u[:, keep]) / np.sqrt(vals[keep])
    for j in range(vecs.shape[1]):
        vecs[:, j] = _phase_fix(vecs[:, j])
    return Eigencut(
        values=np.ascontiguousarray(vals[keep]),
        vectors=vecs,
        dropped=np.append(vals[~keep], 0.0 - factor.residual),  # no -0.0
        residual=factor.residual,
        hermitian_defect=factor.hermitian_defect,
    )


def _residual_bound(g: np.ndarray, rows: np.ndarray) -> tuple[float, float]:
    """min(Frobenius norm, largest absolute row sum) of the Hermitian part
    of ``g - rows.T @ conj(rows)``, and the largest entry of ``|g - g*|``,
    in row blocks of about 2^18 entries."""
    n = g.shape[0]
    step = max(1, (1 << 18) // max(n, 1))
    fro2, row_sum, defect = 0.0, 0.0, 0.0
    for start in range(0, n, step):
        blk = slice(start, start + step)
        adj = dagger(g[:, blk])
        defect = max(defect, float(np.abs(g[blk] - adj).max()))
        res = (g[blk] + adj) / 2
        res -= rows[:, blk].T @ np.conjugate(rows)
        mag = np.abs(res)
        fro2 += float(np.sum(mag * mag))
        row_sum = max(row_sum, float(mag.sum(axis=1).max()))
    return min(float(np.sqrt(fro2)), row_sum), defect


def _phase_fix(v: np.ndarray) -> np.ndarray:
    scale = np.max(np.abs(v))
    if scale == 0.0:
        return v
    for x in v:
        if abs(x) > 1e-12 * scale:
            return v * (np.conjugate(x) / abs(x))
    return v


def pinv(a: np.ndarray, rel_tol: float) -> np.ndarray:
    a = np.atleast_2d(asmatrix(a))
    if a.size == 0:
        return np.zeros((a.shape[1], a.shape[0]), dtype=COMPLEX)
    return np.linalg.pinv(a, rcond=rel_tol)


def map_on_span(sources: np.ndarray, images: np.ndarray, rel_tol: float) -> np.ndarray:
    """Least-squares operator M with ``M @ sources = images`` and M = 0 on the
    orthogonal complement of the column span of `sources`."""
    return asmatrix(images) @ pinv(sources, rel_tol)


def projector_onto_columns(x: np.ndarray, rel_tol: float) -> np.ndarray:
    """Orthogonal projector onto the column span of `x`."""
    x = np.atleast_2d(asmatrix(x))
    n = x.shape[0]
    if x.size == 0:
        return np.zeros((n, n), dtype=COMPLEX)
    u, s, _ = np.linalg.svd(x, full_matrices=False)
    basis = u[:, svd_cut(s, rel_tol)]
    return basis @ dagger(basis)


def svd_cut(s: np.ndarray, rel_tol: float) -> np.ndarray:
    """Mask of the singular values (in descending order) above ``rel_tol``
    times the largest: the rank cut of every SVD column basis."""
    return s > rel_tol * (s[0] if s.size else 0.0)


def join_projectors(projs, rel_tol: float) -> np.ndarray:
    """Projector onto the sum of the ranges (lattice join)."""
    projs = list(projs)
    if not projs:
        raise ValueError("join of an empty family is undefined without a dimension")
    stacked = np.hstack([asmatrix(p) for p in projs])
    return projector_onto_columns(stacked, rel_tol)


def meet_projectors(projs, rel_tol: float) -> np.ndarray:
    """Projector onto the intersection of the ranges (lattice meet).

    Computed algebraically as the null space of the sum of complements.
    """
    projs = [asmatrix(p) for p in projs]
    if not projs:
        raise ValueError("meet of an empty family is undefined without a dimension")
    n = projs[0].shape[0]
    eye = np.eye(n, dtype=COMPLEX)
    s = sum(eye - p for p in projs)
    vals, vecs = np.linalg.eigh(hermitize(s))
    scale = max(float(vals[-1]), 1.0)
    basis = vecs[:, vals < rel_tol * scale]
    return basis @ dagger(basis)


def random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar-ish random unitary via QR of a complex Gaussian matrix."""
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))

