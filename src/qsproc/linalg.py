"""Dense complex linear algebra helpers shared across the package.

Everything here works on plain numpy arrays at desk scale (dimensions in the
tens).  Subspaces are always handled algebraically (rank-revealing
eigendecompositions, exact range sums/intersections), never iteratively.
"""

from __future__ import annotations

import numpy as np

COMPLEX = np.complex128


def asmatrix(a) -> np.ndarray:
    m = np.asarray(a, dtype=COMPLEX)
    if m.ndim != 2:
        raise ValueError(f"expected a matrix, got shape {m.shape}")
    return m


def dagger(a: np.ndarray) -> np.ndarray:
    return np.conjugate(np.transpose(a))


def opnorm(a) -> float:
    """Operator norm (largest singular value); 0.0 for empty matrices."""
    a = np.atleast_2d(np.asarray(a, dtype=COMPLEX))
    if a.size == 0:
        return 0.0
    if a.size == 1:
        return float(abs(a[0, 0]))
    return float(np.linalg.norm(a, 2))


def side_by_side(stack: np.ndarray) -> np.ndarray:
    """A (n, rows, cols) stack as one rows x (n * cols) matrix, block-major."""
    n, rows, cols = stack.shape
    return stack.transpose(1, 0, 2).reshape(rows, n * cols)


def pair_blocks(stack: np.ndarray) -> np.ndarray:
    """Inner products ``F_i* F_j`` of every pair of a (n, rows, k) stack, as
    an (n, n, k, k) array."""
    return np.einsum("iak,jal->ijkl", np.conjugate(stack), stack, optimize=True)


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


def projector_defect(p: np.ndarray) -> float:
    """How far `p` is from being an orthogonal projector: max of the
    idempotence and Hermiticity residuals in operator norm."""
    p = asmatrix(p)
    return max(opnorm(p @ p - p), opnorm(p - dagger(p)))


def hermitize(a: np.ndarray) -> np.ndarray:
    return (a + dagger(a)) / 2.0


def psd_eigencut(gram: np.ndarray, rel_tol: float):
    """Rank-revealing eigendecomposition of a Hermitian PSD matrix.

    `gram` is read as Hermitian (pass it through `hermitize` first).
    Eigenvalues below ``rel_tol * max(eigenvalue)`` are treated as zero.
    Returns ``(kept_values, kept_vectors, dropped_values)``, each in
    descending eigenvalue order, with each kept eigenvector phase-fixed so
    that its first significant component is real positive.
    """
    vals, vecs = np.linalg.eigh(asmatrix(gram))  # ascending
    vals, vecs = vals[::-1], vecs[:, ::-1]
    top = float(vals[0]) if vals.size else 0.0
    cut = rel_tol * max(top, 0.0)
    keep = vals > cut
    kept_vals = np.ascontiguousarray(vals[keep])
    kept_vecs = np.ascontiguousarray(vecs[:, keep])
    for j in range(kept_vecs.shape[1]):
        kept_vecs[:, j] = _phase_fix(kept_vecs[:, j])
    return kept_vals, kept_vecs, np.ascontiguousarray(vals[~keep])


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

