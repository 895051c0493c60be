"""Exact final states of all-linear path cascades: xi(t) = expm(A t) xi0.

Reads a JSON list of {"n", "order", "scales", "t", "xi0"} on stdin and
prints the list of final states as JSON. A is built here from the directed
path Laplacian (node i follows node i - 1), independently of consensuslab:

    A = [[-s1 L, I, 0, ...], [0, -s2 L, I, ...], ..., [..., -sk L]]

It runs in its own process so that the expm workspace does not count
towards the benchmark process's peak memory.
"""

import json
import sys

import numpy as np
import scipy.linalg


def path_laplacian(n):
    L = np.eye(n)
    L[0, 0] = 0.0
    L[np.arange(1, n), np.arange(n - 1)] = -1.0
    return L


def cascade_matrix(n, order, scales):
    L = path_laplacian(n)
    A = np.zeros((order * n, order * n))
    for k in range(order):
        A[k * n:(k + 1) * n, k * n:(k + 1) * n] = -scales[k] * L
        if k + 1 < order:
            A[k * n:(k + 1) * n, (k + 1) * n:(k + 2) * n] = np.eye(n)
    return A


def final_state(case):
    A = cascade_matrix(case["n"], case["order"], case["scales"])
    return scipy.linalg.expm(A * case["t"]) @ np.asarray(case["xi0"], dtype=float)


if __name__ == "__main__":
    cases = json.load(sys.stdin)
    json.dump([final_state(c).tolist() for c in cases], sys.stdout)
