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


BLOCK = 1 << 18
"""Entries of one block of a blocked pass: the Frobenius share that
`_residual_bound` sums at once, the operators `HilbertModel.evaluate`
gathers at once."""

STRIP = BLOCK >> 3
"""Entries of one row strip of a pass over an N x N kernel table
(`row_strips`): a few strips at 256 words, 8 rows at 4,096."""


def row_strips(stop: int, width: int, start: int = 0) -> list[slice]:
    """Consecutive slices covering rows ``start:stop`` of a C-order array
    whose rows hold `width` entries, each of about `STRIP` entries.  No
    slice has fewer than 4 rows unless the range itself does: a remainder
    joins the strip before it, since a GEMM of 1 to 3 rows may round
    otherwise than the whole GEMM, where one of 4 or more rows does not."""
    step = max(4, STRIP // max(width, 1))
    cuts = list(range(start, stop, step))
    if len(cuts) > 1 and stop - cuts[-1] < 4:
        cuts.pop()
    return [slice(a, b) for a, b in zip(cuts, cuts[1:] + [stop])]


def pair_blocks(stack: np.ndarray) -> np.ndarray:
    """Inner products ``F_i* F_j`` of every pair of a (n, rows, k) stack, as
    a fresh C-order (n, n, k, k) array.  It is the GEMM ``X^T conj(X)`` of
    the side-by-side columns X, the Gram matrix ``X* X`` transposed, in the
    operand order whose rounding the einsum ``iak,jal->ijkl`` had at any
    thread count; the GEMM's output is transposed back in place, strip by
    strip, so the table is the one N x N array the call makes."""
    n, _, k = stack.shape
    x = side_by_side(stack)
    out = np.empty((n, n, k, k), dtype=COMPLEX)
    g = out.reshape(n * k, n * k)
    np.matmul(x.T, np.conjugate(x), out=g)
    # g becomes its transpose, the Gram matrix; each step holds two strips,
    # the column strip and numpy's copy of the row strip it overwrites
    for s in row_strips(n * k, 2 * n * k):
        g[s, s] = g[s, s].T.copy()
        lower = g[s.stop:, s].copy()  # a column strip is read, and written, by rows
        g[s.stop:, s] = g[s, s.stop:].T
        g[s, s.stop:] = lower.T
    if k > 1:  # each word's k Gram rows, (a, j, b), to its k x k blocks (j, a, b)
        rows = out.reshape(n, k, n, k)
        for s in row_strips(n, n * k * k):
            out[s] = rows[s].transpose(0, 2, 1, 3).copy()
    return out


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


def worst_gap(
    a: np.ndarray, b: np.ndarray, index: np.ndarray | None = None
) -> tuple[float, tuple[int, int] | None]:
    """``worst_block(a[index] - b)``, or ``worst_block(a - b)`` without an
    index, for (n, m, k, k) blocks b, a row strip at a time (`row_strips`):
    the same norm and the same first block, and no N x N difference.

    A strip's `worst_block` is kept only when its norm is strictly above
    the best so far, or is the first NaN (an infinite entry's), so an
    earlier strip wins a tie.  A block of the maximal norm M has an entry
    of at least M/k, at least the whole array's screen bound, so the
    screen of its own strip passes it too."""
    n, m, k, _ = b.shape
    strips = row_strips(n, m * k * k)
    diff = np.empty((max((s.stop - s.start for s in strips), default=0), m, k, k),
                    dtype=np.result_type(a, b))
    best, at = 0.0, None
    for s in strips:
        d = diff[:s.stop - s.start]
        if index is None:
            np.subtract(a[s], b[s], out=d)
        else:
            np.take(a, index[s], axis=0, out=d)
            d -= b[s]
        norm, where = worst_block(d)
        if not norm <= best and best == best:  # the first NaN stays, as argmax keeps it
            best, at = norm, (where[0] + s.start, where[1])
    return best, at


QR_ENTRIES = 9216
"""Entries, rows x (columns - 1), from which OpenBLAS threads the level-2
kernels of an unblocked QR: a QR of fewer keeps its bits at any thread
count (OpenBLAS 0.3.31, measured at 1, 2 and 4 threads)."""


def gram_gap(a: np.ndarray, b: np.ndarray) -> float:
    """A certified upper bound on ``|A* A - B* B|_2`` for two stacks of
    columns, A (p x M) and B (q x M), with nothing of order M^2 formed:
    O(M (p + q)^2).

    With C = [A; B] and J = diag(I_p, -I_q) the difference is C* J C.  The
    thin QR C* = Q R (`_stacked_r`) gives ``C* J C = Q (R J R*) Q*``, so its
    2-norm is the largest |eigenvalue| of the c x c matrix R J R*, c = p + q.
    Nothing is squared: eigenvalues read off C C* come out at about sqrt(eps)
    when the Gram matrices agree, since J C C* is then nilpotent.

    The allowance ``c eps |C|_F^2`` covers the QR's backward error, the
    product R J R* and its eigensolve, as `kernels._slice_screen` allows for
    its QR.  Bit-identical stacks give 0.0; a non-finite entry gives inf."""
    if a.shape == b.shape and np.array_equal(a, b):
        return 0.0
    fro2 = float((a.real**2 + a.imag**2).sum() + (b.real**2 + b.imag**2).sum())
    if not fro2 < np.inf:
        return np.inf
    p, c = a.shape[0], a.shape[0] + b.shape[0]
    r = _stacked_r(a, b)
    ra, rb = r[:, :p], r[:, p:]
    eig = np.linalg.eigvalsh(ra @ dagger(ra) - rb @ dagger(rb))
    return float(np.abs(eig).max(initial=0.0)) + c * np.finfo(float).eps * fro2


def _stacked_r(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The triangular factor R of the thin QR of ``[A; B]*``, streamed over
    strips of columns: each step is the QR of the last R over the next
    strip's rows, of fewer than `QR_ENTRIES` entries while c <= 68
    columns, so R keeps its bits at any BLAS thread count; past that the
    strips are c rows high, at twice the cost of one QR at most."""
    c, m = a.shape[0] + b.shape[0], a.shape[1]
    height = max((QR_ENTRIES - 1) // max(c - 1, 1) - c, c, 1)
    r = np.zeros((0, c), dtype=COMPLEX)
    for start in range(0, m, height):
        s = slice(start, start + height)
        strip = dagger(np.concatenate([a[:, s], b[:, s]]))
        r = np.linalg.qr(np.concatenate([r, strip]), mode="r")
    return r


def gemm_rounding(columns: np.ndarray, k: int = 1) -> float:
    """A bound on the rounding of every k x k block of the Gram matrix
    ``X* X`` that one GEMM of the d x (n k) columns X forms (`pair_blocks`),
    word i's block of columns X_i: an entry's products and sums round by at
    most ``(d + 2) eps |x_p| |x_q|`` (Higham, Accuracy and Stability of
    Numerical Algorithms, section 3.6), so a block's 2-norm by at most
    ``(d + 2) eps max_i |X_i|_F^2``, whatever the number of words."""
    x = np.asarray(columns)
    words = (x.real**2 + x.imag**2).sum(axis=0).reshape(-1, k).sum(axis=1)
    return (x.shape[0] + 2) * np.finfo(float).eps * float(words.max(initial=0.0))


def projector_gaps(p) -> np.ndarray:
    """How far each matrix of a stack is from being an orthogonal projector,
    as matrices: the idempotence residuals ``p p - p``, then the Hermiticity
    residuals ``p - p*``.  The larger operator norm of a matrix's two is its
    projector defect."""
    p = np.asarray(p, dtype=COMPLEX)
    return np.concatenate([p @ p - p, p - dagger(p)])


def hermitize(a: np.ndarray) -> np.ndarray:
    return (a + dagger(a)) / 2.0


class Cholesky(NamedTuple):
    """The uncut factor G ~ L L* that `pivoted_cholesky` or `stack_factor`
    returns."""

    rows: np.ndarray  # (rank, N): row k is the factor's column k, G ~ rows.T conj(rows)
    values: np.ndarray  # eigenvalues of L* L, descending
    u: np.ndarray  # (rank, rank) their orthonormal eigenvectors
    residual: float  # certified bound on the 2-norm of G - L L*
    hermitian_defect: float  # largest entry of |G - G*|, or a bound on it


class Eigencut(NamedTuple):
    """The rank-revealing eigendecomposition `eigencut` returns."""

    values: np.ndarray  # kept eigenvalues, descending
    vectors: np.ndarray  # (N, rank) orthonormal eigenvectors of `values`
    dropped: np.ndarray  # factored eigenvalues below the cut, then -residual
    residual: float  # certified bound on the 2-norm of G - L L*
    hermitian_defect: float  # largest entry of |G - G*|, or a bound on it


def pivoted_cholesky(table: np.ndarray) -> Cholesky:
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

    `table` is G itself, or an (n, n, k, k) kernel table whose Gram matrix
    is G, read as it lies (`_gram_block`): the pivots' rows and columns, then
    the strips of the residual bound.
    """
    table = _as_table(table)
    n = table.shape[0] * table.shape[-1]
    whole = slice(0, n)
    on_diagonal = table[np.arange(table.shape[0]), np.arange(table.shape[0])]
    diag = np.real(on_diagonal.diagonal(axis1=1, axis2=2)).flatten()  # a copy
    floor = n * np.finfo(float).eps * float(diag.max(initial=0.0))
    rows = np.empty((min(n, 16), n), dtype=COMPLEX)  # row k: factor column k
    rank = 0
    while rank < n:
        i = int(np.argmax(diag))
        if not diag[i] > floor:
            break
        if rank == rows.shape[0]:
            rows = np.concatenate([rows, np.empty_like(rows)])
        pivot = slice(i, i + 1)
        col = (_gram_block(table, whole, pivot)[:, 0]
               + np.conjugate(_gram_block(table, pivot, whole)[0])) / 2
        col -= rows[:rank].T @ np.conjugate(rows[:rank, i])
        col /= np.sqrt(diag[i])
        rows[rank] = col
        diag -= col.real**2 + col.imag**2
        diag[i] = -np.inf  # pivoted
        rank += 1
    rows = rows[:rank]
    residual, defect = _residual_bound(table, rows)
    vals, u = np.linalg.eigh(hermitize(np.conjugate(rows) @ rows.T))  # ascending
    return Cholesky(rows, vals[::-1], u[:, ::-1], residual, defect)


def stack_factor(columns: np.ndarray) -> Cholesky:
    """The factor of the Gram matrix ``G = X* X`` of the columns X, read off
    the thin SVD ``X = W diag(s) Vh``: ``L = X* W``, the coordinates of each
    column in the left singular basis, so L* L is ``diag(s^2)`` to rounding
    (u = I).

    Its small directions see the conditioning of X, where a factor of G sees
    that of G, its square (Golub and Van Loan, section 5.3).  Each column's
    coordinates carry the rounding of its own norm, where those of the equal
    ``diag(s) Vh`` carry that of the largest singular value.

    The certificate is read off the stack, for the table that one GEMM of X
    forms (`pair_blocks`), and no table is read: `residual` is the `gram_gap`
    of X and ``W* X`` plus the table's rounding in 2-norm (`gemm_rounding`
    of X as one block), and `hermitian_defect` is twice the rounding bound
    of one entry, an a-priori bound on the table's ``|G - G*|``.
    """
    x = asmatrix(columns)
    w, s, _ = np.linalg.svd(x, full_matrices=False)
    coords = dagger(w) @ x
    residual = gram_gap(x, coords) + gemm_rounding(x, max(x.shape[1], 1))
    defect = 2 * gemm_rounding(x)
    return Cholesky(np.conjugate(coords), s * s, np.eye(s.size, dtype=COMPLEX),
                    residual, defect)


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


def _as_table(table) -> np.ndarray:
    """A Gram matrix G as the (N, N, 1, 1) kernel table whose Gram matrix it
    is; an (n, n, k, k) table as it is."""
    t = np.asarray(table, dtype=COMPLEX)
    if t.ndim not in (2, 4):
        raise ValueError(f"expected a matrix or a kernel table, got shape {t.shape}")
    return t[:, :, None, None] if t.ndim == 2 else t


def _gram_block(table: np.ndarray, rows: slice, cols: slice) -> np.ndarray:
    """Rows `rows` and columns `cols` (slices with bounds) of the Gram
    matrix of an (n, n, k, k) kernel table over (word, basis) pairs,
    word-major: a view of the table when k = 1."""
    k = table.shape[-1]
    i, j = rows.start // k, cols.start // k
    sub = table[i:-(-rows.stop // k), j:-(-cols.stop // k)]
    g = sub.transpose(0, 2, 1, 3).reshape(sub.shape[0] * k, sub.shape[1] * k)
    return g[rows.start - i * k:rows.stop - i * k, cols.start - j * k:cols.stop - j * k]


def _residual_bound(table: np.ndarray, rows: np.ndarray) -> tuple[float, float]:
    """min(Frobenius norm, largest absolute row sum) of the Hermitian part
    of ``G - rows.T @ conj(rows)``, for the Gram matrix G of an (n, n, k, k)
    kernel table (`_gram_block`), and the largest entry of ``|G - G*|``.

    G is read in row blocks of about `BLOCK` entries, whose squared moduli
    are summed at once, and each block in row strips (`row_strips`): the
    strip's rows of G, its columns (gathered by rows, then conjugated and
    transposed) and its rows of the GEMM, in buffers every strip reuses."""
    n = table.shape[0] * table.shape[-1]
    whole = slice(0, n)
    step = max(1, BLOCK // max(n, 1))
    blocks = [row_strips(min(start + step, n), n, start) for start in range(0, n, step)]
    height = max((s.stop - s.start for strips in blocks for s in strips), default=0)
    one, two = np.empty((2, height * n), dtype=COMPLEX)
    mags = np.empty(min(step, n) * n)
    conj_rows = np.conjugate(rows)
    fro2, row_sum, defect = 0.0, 0.0, 0.0
    for strips in blocks:
        start = strips[0].start
        mag = mags[:(strips[-1].stop - start) * n].reshape(-1, n)
        gaps = []
        for s in strips:
            h, out = s.stop - s.start, mag[s.start - start:s.stop - start]
            g = _gram_block(table, s, whole)
            res, adj = one[:h * n].reshape(h, n), two[:h * n].reshape(h, n)
            col = one[:n * h].reshape(n, h)  # the strip's columns, gathered by rows
            np.copyto(adj, np.conjugate(_gram_block(table, whole, s), out=col).T)
            gaps.append(np.abs(np.subtract(g, adj, out=res), out=out).max())
            np.add(g, adj, out=res)
            res *= 0.5  # the bits of the complex division by 2, at a seventh of its cost
            res -= np.matmul(rows[:, s].T, conj_rows, out=adj)  # adj is spent
            np.abs(res, out=out)
        defect = max(defect, float(np.max(gaps)))
        row_sum = max(row_sum, float(mag.sum(axis=1).max()))
        fro2 += float(np.sum(np.multiply(mag, mag, out=mag)))
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

