"""Kernel oracles written out by hand, for tests that need a particular table,
and readings of a reconstruction that only tests take."""

import dataclasses

import numpy as np

from qsproc.kernels import KernelOracle
from qsproc.linalg import COMPLEX, meet_projectors


def oracle_from_values(site, spaces, words, values, kdim=1, symmetry=None):
    """An oracle whose table holds `values[(i, j)]` (a matrix or a scalar)
    at each listed pair and zero elsewhere."""
    n = len(words)
    table = np.zeros((n, n, kdim, kdim), dtype=COMPLEX)
    for (i, j), v in values.items():
        table[i, j] = np.asarray(v, dtype=COMPLEX).reshape(kdim, kdim)
    return KernelOracle(
        site=site,
        spaces=spaces,
        kdim=kdim,
        words=tuple(words),
        table=table,
        symmetry=symmetry or {},
    )


def with_table(oracle, edit):
    """A new oracle like `oracle` whose table is a copy of its table after
    `edit(copy)`: an oracle's own table is read-only."""
    table = oracle.table.copy()
    edit(table)
    return dataclasses.replace(oracle, table=table)


def origin_unit(recon) -> np.ndarray:
    """The origin's unit of a reconstruction: the meet of every slice span."""
    slices = list(recon.lattice.slices.values())
    return meet_projectors(slices, recon.gns.config.rank_tol)


def origin_unit_rank(recon) -> int:
    """Rank of the origin's unit of a reconstruction."""
    return int(round(float(np.real(np.trace(origin_unit(recon))))))
