"""Bottom-up evaluation kernels over a flattened network.

The hot loop of both training and evaluation is computing, for a batch of
complete rows, the log-density of every node in the network.  The network
is flattened into plain arrays (see ``evaluate.CompiledNet``) and handed to
one of two interchangeable kernels:

* a numba ``@njit`` scalar-loop kernel, used whenever numba imports;
* a vectorized pure-numpy kernel, used when numba is absent.

Both produce identical results up to floating point noise; the benchmark
under ``benchmarks/`` compares their throughput.

Array layout (N nodes in topological order, children before parents):
    kind[i]          0 leaf, 1 sum, 2 product
    child_ptr/child_idx   CSR child lists over dense node indices
    child_logw[e]    log mixture weight of edge e (0.0 for product edges)
    leaf_ptr/leaf_vars    CSR variable columns per leaf
    leaf_mean        flat per-leaf means, aligned with leaf_vars
    mat_ptr/leaf_ichol    flat row-major inverse Cholesky factors, k*k per leaf
    leaf_const[i]    log normalization constant of leaf i
"""

from __future__ import annotations

import math

import numpy as np

KIND_LEAF = 0
KIND_SUM = 1
KIND_PRODUCT = 2


def eval_flat_numpy(kind, child_ptr, child_idx, child_logw,
                    leaf_ptr, leaf_vars, leaf_mean, mat_ptr, leaf_ichol,
                    leaf_const, X, out):
    """Vectorized fallback: one pass over nodes, batched over rows."""
    n_nodes = kind.shape[0]
    for i in range(n_nodes):
        if kind[i] == KIND_LEAF:
            lo, hi = leaf_ptr[i], leaf_ptr[i + 1]
            k = hi - lo
            cols = leaf_vars[lo:hi]
            dev = X[:, cols] - leaf_mean[lo:hi]
            ichol = leaf_ichol[mat_ptr[i]:mat_ptr[i] + k * k].reshape(k, k)
            y = dev @ ichol.T
            out[i, :] = leaf_const[i] - 0.5 * np.einsum("ij,ij->i", y, y)
        elif kind[i] == KIND_PRODUCT:
            lo, hi = child_ptr[i], child_ptr[i + 1]
            out[i, :] = out[child_idx[lo:hi], :].sum(axis=0)
        else:
            lo, hi = child_ptr[i], child_ptr[i + 1]
            terms = out[child_idx[lo:hi], :] + child_logw[lo:hi, None]
            out[i, :] = np.logaddexp.reduce(terms, axis=0)
    return out


def _eval_flat_scalar(kind, child_ptr, child_idx, child_logw,
                      leaf_ptr, leaf_vars, leaf_mean, mat_ptr, leaf_ichol,
                      leaf_const, X, out):
    n_nodes = kind.shape[0]
    n_rows = X.shape[0]
    for i in range(n_nodes):
        if kind[i] == KIND_LEAF:
            lo = leaf_ptr[i]
            k = leaf_ptr[i + 1] - lo
            mp = mat_ptr[i]
            for p in range(n_rows):
                q = 0.0
                for r in range(k):
                    acc = 0.0
                    for c in range(r + 1):
                        acc += leaf_ichol[mp + r * k + c] * (X[p, leaf_vars[lo + c]] - leaf_mean[lo + c])
                    q += acc * acc
                out[i, p] = leaf_const[i] - 0.5 * q
        elif kind[i] == KIND_PRODUCT:
            lo, hi = child_ptr[i], child_ptr[i + 1]
            for p in range(n_rows):
                acc = 0.0
                for e in range(lo, hi):
                    acc += out[child_idx[e], p]
                out[i, p] = acc
        else:
            lo, hi = child_ptr[i], child_ptr[i + 1]
            for p in range(n_rows):
                best = -np.inf
                for e in range(lo, hi):
                    v = child_logw[e] + out[child_idx[e], p]
                    if v > best:
                        best = v
                if best == -np.inf:
                    out[i, p] = -np.inf
                else:
                    acc = 0.0
                    for e in range(lo, hi):
                        acc += math.exp(child_logw[e] + out[child_idx[e], p] - best)
                    out[i, p] = best + math.log(acc)
    return out


try:
    from numba import njit
except ImportError:  # pragma: no cover - exercised only without numba installed
    NUMBA_ENABLED = False
    eval_flat_numba = None
else:
    NUMBA_ENABLED = True
    eval_flat_numba = njit(cache=True)(_eval_flat_scalar)

eval_flat = eval_flat_numba if NUMBA_ENABLED else eval_flat_numpy
