"""Cascade assembly and the plant-route baseline controllers.

A cascade of n first-order consensus operators defines the closed loop

    xi_k' = -op_k(xi_k, t) + xi_{k+1},   k < n
    xi_n' = -op_n(xi_n, t) + u_ref(t)

with xi_1 = x the plant positions and xi_{k+1} = xi_k' + op_k(xi_k, t).
The cascade form is the primary simulation route. The controller-on-plant
form runs the second-order baselines (``PlantLaw``) on the plant
s = [x; xdot]; ``compositional_controller`` writes the cascade as such a
controller, as a cross-check.

Both routes compile to one block program (``_compile``). Each field call
runs, in this order: y = M s, the one block product, as ``M.dot(s)``; the
gated and saturated operators' ``finish`` once over each run of adjacent
blocks that share one operator; ordered in-place adds y[dst] += s[src] or
y[src] (the cascade's shifts xi_{k+1}, the plant's term sums into u); then
the steps that write the tail block, the outer stage or u: naive-serial's
nested op_2(op_1(x)), a delayed outer stage's unchecked ``apply`` (velocity
tracking's among them, on both routes) and the input. M is dense when
small or full, else its nonzeros alone (``_block_operator``): no field builds
a dense matrix above the sparse threshold. Both kinds of M name their product
``dot``: a dense ``M.dot(s)`` runs the gemv of ``M @ s``, bit for bit, at
half its call cost (0.60 against 1.20 us at dim 20, 1.32 against 3.05 at
80). A field with a dense M may carry ``field.affine(s, h)``, which
answers (A, c, j) where its program is affine, s' = A s + c, folded from
its own data, over the next j steps of size h from s, and None elsewhere;
``sim.integrate`` takes those j steps by RK4's own step polynomial, one
product per step. A program whose every step is affine (a constant input
included) answers one fold for the whole run. A saturated cascade (every
stage saturated from the innermost saturated one out, linear static below
it) answers the fold of its current clamp pattern for as many steps as a
bound on the band edges proves that the pattern holds
(``_saturation_bound``). Every other field carries None. A gated program
also carries ``field.prefetch(times)``, which
``sim.integrate`` calls with the exact stage times of each block of steps
to come; the field then reads each gated run's gates by t from a table,
in place of its ``finish``. Every other field carries None. The field
calls nothing else of an operator, inside ``sim.integrate``, which
rejects a non-finite or blown-up state after every step; the other
callers of an operator use its checked ``evaluate``. Each system owns its
state's layout: ``Cascade`` and ``PlantLaw`` give their ``route``, field
(``rhs``), ``initial_state`` from plant initial conditions and ``plant``
map, which ``Trajectory.plant_blocks`` applies to one block of recorded
rows at a time, where a record is read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .exceptions import OperatorError, ShapeError
from .operators import (
    ConsensusOperator,
    DelayedAbsoluteVelocity,
    LinearStatic,
    LinearTimeVarying,
    Saturated,
)
from .sim import HeldReads, delay_bound

MAX_ORDER = 4


def _check_stages(stages, inner):
    """The stage layout rules: every stage a consensus operator with stage 1's
    agent count, the first ``inner`` stages relative feedback (not delayed)."""
    for k, op in enumerate(stages, start=1):
        if not isinstance(op, ConsensusOperator):
            raise OperatorError(f"stage {k} is not a consensus operator")
    n = stages[0].n
    for k, op in enumerate(stages, start=1):
        if op.n != n:
            raise ShapeError(f"stage {k} has {op.n} agents, stage 1 has {n}")
        if k <= inner and not op.relative_feedback:
            raise OperatorError(f"stage {k} ({op.kind}) is not relative feedback; delayed "
                                "kinds are admissible only as the outermost stage")


@dataclass(frozen=True)
class Cascade:
    """Ordered composition stages, innermost first; only the outermost may be delayed."""

    stages: tuple
    route = "cascade"

    def __post_init__(self):
        stages = tuple(self.stages)
        object.__setattr__(self, "stages", stages)
        if not 1 <= len(stages) <= MAX_ORDER:
            raise OperatorError(f"cascade order must be 1..{MAX_ORDER}")
        _check_stages(stages, len(stages) - 1)

    @property
    def order(self) -> int:
        return len(self.stages)

    @property
    def n(self) -> int:
        return self.stages[0].n

    @property
    def tau_max(self) -> float | None:
        """Delay bound of a history-reading outer stage (only the outer
        stage may be delayed); None when no stage reads a history."""
        return getattr(self.stages[-1], "tau_max", None)

    def rhs(self, w=None):
        """The field of the stacked cascade state (``cascade_rhs``)."""
        return cascade_rhs(self, w)

    def initial_state(self, x0, xdot0) -> np.ndarray:
        """Cascade state matching plant initial conditions: xi_1(0) = x(0),
        and at order 2 xi_2(0) = xdot(0) + op_1(x(0), 0). Order 1 ignores
        xdot0; order 3 and up must be given xi(0) itself."""
        if self.order == 1:
            return x0
        if self.order > 2:
            raise OperatorError(f"order {self.order} takes its initial state from xi0 alone")
        return np.concatenate((x0, xdot0 + self.stages[0].evaluate(x0, 0.0)))

    def plant(self, states, times):
        """Plant map of a record block (``reconstruct_plant``)."""
        return reconstruct_plant(self, states, times)


# Products at or above _SPARSE_MIN_DIM rows use the row-sparse product when at
# most _SPARSE_MAX_DENSITY of the matrix is nonzero. Dense / row-sparse us per
# product (one BLAS thread, 2-vCPU Xeon, best of 9 x 1000): path-graph cascade
# 11 / 4.5 at dim 200, 32 / 8.5 at 400, 251 / 14 at 800, even at dim 100;
# random fill even near 3% at dims 200-400 and 6% at 800, either side of 5%.
_SPARSE_MIN_DIM = 200
_SPARSE_MAX_DENSITY = 0.05


class _RowSparse:
    """A matrix as its nonzeros in row-major order: ``M.dot(s)`` sums each
    row in column order from 0.0, as a CSR product does."""

    def __init__(self, rows, cols, vals, height):
        order = np.lexsort((cols, rows))
        self.rows, self.cols, self.vals = rows[order], cols[order], vals[order]
        self.height = height

    def dot(self, s):
        if not len(self.rows):  # bincount would return integer zeros
            return np.zeros(self.height)
        return np.bincount(self.rows, self.vals * s[self.cols], self.height)


def _block_operator(blocks, shape):
    """The matrix of ``shape`` that is c * B at each of ``blocks`` (i, j, c, B),
    B square or, 1-D, a diagonal, cornered at row i and column j, and zero
    elsewhere: dense when small or full, else a _RowSparse of its nonzeros."""
    nnz = sum(np.count_nonzero(B) for *_, B in blocks)
    if shape[0] < _SPARSE_MIN_DIM or nnz > _SPARSE_MAX_DENSITY * shape[0] * shape[1]:
        M = np.zeros(shape)
        for i, j, c, B in blocks:
            M[i:i + len(B), j:j + len(B)] = c * (B if B.ndim == 2 else np.diag(B))
        return M
    parts = [(np.empty(0, int), np.empty(0, int), np.empty(0))]
    for i, j, c, B in blocks:
        idx = np.nonzero(B)
        r, k = idx if B.ndim == 2 else idx * 2
        parts.append((r + i, k + j, c * B[idx]))
    return _RowSparse(*map(np.concatenate, zip(*parts)), shape[0])


def _compile(blocks, shape, n, block_ops, adds, tail, *, nested=None, delayed=None, feed=None,
             bound=None):
    """The vector field ``field(s, t, hist)`` of one block program, run in the
    order the module docstring gives. M is the matrix of ``shape`` that
    ``blocks`` make (``_block_operator``), in N-row blocks; block k is owned by
    block_ops[k] or None, and each run of adjacent blocks owned by one gated or
    saturated operator takes one ``finish``. ``adds`` holds (dst, src, own):
    y[dst] += y[src] if own else s[src]. The tail steps write y[tail]:
    ``nested`` (op, src) adds op's map of y[src], ``delayed`` (op, reads)
    subtracts op.apply(s[tail], reads of hist), reads being HeldReads of
    columns of s or None, and ``feed`` adds: a constant vector, or a
    callable t -> vector called at each t. Each step adds in place, in the
    law's order. Returns y[:len(s)].

    The field's ``affine`` is None, or the callable ``affine(s, h)`` that
    answers (A, c, j) or None: field(s', t, hist) = A s' + c, A of width x
    width, at every RK4 stage point of the next j steps of size h from s.
    It is a callable only when M is dense, any nested product is linear
    static, any delayed step is velocity tracking without reads
    (-diag(gains) s[tail] + gains ref) and ``feed`` is None or constant;
    then
    - a program without ``finish`` runs answers its one fold (``_affine_fold``)
      with j = inf, at every s of its width;
    - a program whose runs are all saturated, given ``bound(s, y, h)``, the
      steps over which every saturated row keeps its side of the band,
      answers the fold of its current clamp pattern (``_pattern_step``).
    The rule adds no cost knob: the sparse threshold already decided that a
    dense M's D^2 floats fit, and a row-sparse M (linear_scale's N = 400) is
    never folded, so no dense D x D matrix is built above the threshold. A
    fold costs O(D^2) and, with a nested product, one N x N by N x width
    product.

    The field's ``prefetch`` is None unless some finish run or the nested
    product is gated (``LinearTimeVarying``). Then ``prefetch(times)``, a
    (T,) array of stage times, takes one block ``op.gates(times)`` per gated
    operator and refills the table of each of its runs and products with
    {t: row}: the block's T rows, tiled to m N entries (N for a product),
    read-only. A table holds one block of stage times (``sim.PREFETCH_STEPS``),
    filled inside ``sim.integrate``, so compiling does no gate work. A field
    call at a time in the table multiplies by its row, y[sl] *= row, which
    rounds as ``finish``'s (m, N) broadcast does; any other time, and every
    saturated run, runs ``finish``.
    """
    height, width = shape
    square = height == width
    runs = []
    for k, op in enumerate(block_ops):
        if op is None or isinstance(op, LinearStatic) or not op.relative_feedback:
            continue
        if runs and block_ops[k - 1] is op:
            runs[-1][2] += 1
        else:
            runs.append([op, k, 1])
    gated = {}  # op: [(m, table)] of each of its runs, and of its nested product

    def table(op, m):
        if not isinstance(op, LinearTimeVarying):
            return None
        gated.setdefault(op, []).append((m, {}))
        return gated[op][-1][1]

    runs = [(op.finish, slice(k * n, (k + m) * n), m, table(op, m)) for op, k, m in runs]
    M = _block_operator(blocks, shape)
    # ndarray.dot, not @: the same gemv at half the call cost (module docstring).
    dot = M.dot
    stepped = any(step is not None for step in (nested, delayed, feed))
    product = product_finish = product_src = product_gates = None
    if nested is not None:
        op, product_src = nested
        product = _block_operator([(0, 0, 1.0, op.L)], op.L.shape)
        product_finish = None if isinstance(op, LinearStatic) else op.finish
        product_gates = table(op, 1)
    delayed_op, reads = delayed if delayed is not None else (None, None)
    variable = callable(feed)

    def field(s, t, hist):
        if len(s) != width:
            raise ShapeError(f"state length {len(s)} != {width}")
        y = dot(s)
        for finish, sl, m, gates in runs:
            row = None if gates is None else gates.get(t)
            if row is None:
                finish(y[sl] if m == 1 else y[sl].reshape(m, n), t)
            else:
                block = y[sl]
                block *= row
        for dst, src, own in adds:
            block = y[dst]
            block += y[src] if own else s[src]
        if stepped:
            out = y[tail]
            if product is not None:
                z = product.dot(y[product_src])
                row = None if product_gates is None else product_gates.get(t)
                if row is not None:
                    z *= row
                elif product_finish is not None:
                    product_finish(z, t)
                out += z
            if delayed_op is not None:
                out -= delayed_op.apply(s[tail], reads and reads(t, hist))
            if feed is not None:
                out += feed(t) if variable else feed
        return y if square else y[:width]

    def prefetch(times):
        keys = times.tolist()
        for op, tables in gated.items():
            block = op.gates(times)
            for m, gates in tables:
                gates.clear()  # before tiling: the old and new rows never coexist
                rows = np.tile(block, m) if m > 1 else block
                rows.flags.writeable = False
                gates.update(zip(keys, rows))

    field.prefetch = prefetch if gated else None
    field.affine = None
    if (isinstance(M, np.ndarray) and product_finish is None and not variable
            and (delayed_op is None
                 or reads is None and isinstance(delayed_op, DelayedAbsoluteVelocity))):

        def fold(A, c):
            return _affine_fold(A, c, width, n, adds, tail, nested, delayed_op, feed)

        if not runs:
            answer = (*fold(M.copy(), np.zeros(height)), math.inf)
            field.affine = lambda s, h: answer if len(s) == width else None
        elif bound is not None:
            field.affine = _pattern_step(M, runs, bound, fold)
    return field


def _affine_fold(A, c, width, n, adds, tail, nested, delayed_op, w):
    """(A, c) with field(s, t, hist) = A s + c, A of width x width: the
    program's steps run on the affine rows A s + c of its block product after
    ``finish``, in its order, editing them in place. Only for a program whose
    every step is affine in s (``_compile``). The own adds and the nested
    product read A alone: c is nonzero before them only on a saturated
    cascade's clamped rows, and a cascade has neither. The tail's constants,
    velocity tracking's and the constant feed w, enter last, as in the field.
    """
    for dst, src, own in adds:
        if own:
            A[dst] += A[src]
        else:
            A[dst, src] += np.eye(n)
    if nested is not None:
        op, src = nested
        A[tail] += op.L @ A[src]
    if delayed_op is not None:  # velocity tracking on s[tail]: -gains (s - ref)
        A[tail, tail] -= np.diag(delayed_op.gains)
        c[tail] += delayed_op.gains * delayed_op.ref
    if w is not None:
        c[tail] += w
    return A[:width], c[:width]


def _pattern_step(M, runs, bound, fold):
    """The ``affine`` answer of a program whose finish runs are all saturated.

    At state s, y = M s holds each saturated row's argument, and the clamp
    pattern P of s marks each row inside the band (|y| < 1) or clamped at
    sign(y). Where P holds, the field is affine: a clamped row is zero in A
    and sign(y) in c, an inside row is M's, and the program's adds run on
    those rows (``fold``). ``bound(s, y, h)`` gives j, the steps of size h
    over which P provably holds at every RK4 stage point; the answer is
    (A_P, c_P, j), or None when j is 0. Only the current pattern is kept, so
    that an unchanged pattern answers with the same A object.
    """
    rows = np.concatenate([np.arange(sl.start, sl.stop) for _, sl, _, _ in runs])
    width = M.shape[1]
    current = None  # (pattern, A, c)

    def affine(s, h):
        nonlocal current
        if len(s) != width:
            return None
        y = M.dot(s)
        j = bound(s, y, h)
        if not j:
            return None
        y = y[rows]
        pattern = np.where(np.abs(y) < 1.0, 0.0, np.sign(y))
        if current is None or not np.array_equal(pattern, current[0]):
            A, c = M.copy(), np.zeros(len(M))
            A[rows[pattern != 0]] = 0.0
            c[rows] = pattern
            current = (pattern, *fold(A, c))
        return current[1], current[2], j

    return affine


def _saturation_bound(stages, n, w):
    """``bound(s, y, h)`` of a saturated cascade, or None where it does not
    close: the steps j of size h over which no saturated row's argument
    reaches the band edge |y| = 1 at any RK4 stage point, y = M s.

    With y_k = L_k xi_k and m_k = min_i |1 - |y_k,i||, every stage point of
    the next j steps lies within j h max ||L_k f_k||_inf of s in y_k, f_k
    being block k of the field. Where stages k..n are saturated,
    L_k f_l = -L_k sat(.) + L_k xi_{l+1} gives
    ||L_k f_l|| <= ||L_k|| + ||L_k xi_{l+1}(s)|| + j h max ||L_k f_{l+1}||,
    which closes at the outer stage with ||L_k w||. So block k holds its
    pattern while D_k(jh) = sum_i b_{k+i} (jh)^(i+1) <= m_k, with
    b_l = ||L_k|| + ||L_k xi_{l+1}(s)|| and b_n = ||L_k|| + ||L_k w||;
    j is the largest such integer for every saturated block. This holds
    when every stage from the innermost saturated one outward is saturated,
    those below it linear static, and w None or one constant vector. A row
    within rounding of the band edge changes the field by that rounding
    only, as sat is continuous, so the bound takes no slack.
    """
    saturated = [isinstance(op, Saturated) for op in stages]
    if not any(saturated) or callable(w):
        return None
    first = saturated.index(True)
    if not all(saturated[first:]) or not all(isinstance(op, LinearStatic)
                                             for op in stages[:first]):
        return None
    w = np.zeros(n) if w is None else w
    readers = []  # (k, L_k, ||L_k||, ||L_k w||) of each saturated stage
    for k in range(first, len(stages)):
        L = stages[k].L
        readers.append((k, L, np.abs(L).sum(axis=1).max(), np.abs(L @ w).max()))

    def bound(s, y, h):
        xi = s.reshape(len(stages), n)
        j = math.inf
        for k, L, norm, feed in readers:
            m = np.abs(1.0 - np.abs(y[k * n:(k + 1) * n])).min()
            if not m > 0:
                return 0
            if not norm:
                continue
            b = [norm + v for v in np.abs(xi[k + 1:] @ L.T).max(axis=1).tolist()]
            b.append(norm + feed)

            def reach(steps):
                u, acc = steps * h, 0.0
                for coeff in reversed(b):
                    acc = acc * u + coeff
                return acc * u

            lo, hi = 0, min(j, math.floor(m / (b[0] * h)))
            while lo < hi:
                mid = (lo + hi + 1) // 2
                if reach(mid) <= m:
                    lo = mid
                else:
                    hi = mid - 1
            j = lo
        return j

    return bound


def cascade_rhs(cascade: Cascade, u_ref=None):
    """Vector field ``field(xi, t, hist)`` of the stacked cascade state.

    ``u_ref`` is None, a constant N-vector or a callable t -> N-vector,
    feeding the outer stage.
    ``hist`` is a history view of the stacked state, read only by a delayed
    outer stage. The block program's matrix A holds -L_k on the diagonal
    block of every relative stage and the identity shift xi_{k+1} of every
    linear-static one; a gated or saturated stage adds its shift after its
    ``finish``. A delayed outer stage is the program's delayed step, as on
    the plant route: it leaves the tail rows of A zero, so its ``apply`` a
    gives 0 - a. Velocity tracking's ``reads`` are None: it reads no history.
    """
    stages = cascade.stages
    n = cascade.n
    shape = (cascade.order * n,) * 2
    blocks = [slice(k * n, (k + 1) * n) for k in range(cascade.order)]
    tail = blocks[-1]
    A = []
    shifts = []
    for k, op in enumerate(stages[:-1]):
        A.append((k * n, k * n, -1.0, op.L))
        if isinstance(op, LinearStatic):
            A.append((k * n, (k + 1) * n, 1.0, np.ones(n)))
        else:
            shifts.append((blocks[k], blocks[k + 1], False))
    outer = stages[-1]
    delayed = None
    if outer.relative_feedback:
        A.append((tail.start, tail.start, -1.0, outer.L))
    else:
        delayed = (outer, outer.reads(tail.start))
    return _compile(A, shape, n, stages, shifts, tail, delayed=delayed, feed=u_ref,
                    bound=_saturation_bound(stages, n, u_ref))


def reconstruct_plant(cascade: Cascade, xi, t):
    """Plant states from cascade states: x = xi_1, xdot = xi_2 - op_1(xi_1, t).

    ``xi`` is one stacked state at time t, or an (m, order*N) block of
    them with t the (m,) array of their times; x and xdot are then (m, N)
    blocks, and op_1 takes the whole block in one product with one finite
    check. For order 1 there is no velocity; returns (x, None). Derivatives
    beyond xdot are left to finite differences on the recorded grid
    (metrics).
    """
    n_agents = cascade.n
    xi = np.asarray(xi, dtype=float)
    x = xi[..., :n_agents]
    if cascade.order == 1:
        return x, None
    xdot = xi[..., n_agents:2 * n_agents] - cascade.stages[0].evaluate(x, t)
    return x, xdot


def compositional_controller(l1, l2):
    """u(x, xdot, t, hist=None) = -op_2(xdot + op_1(x, t), t) - d/dt op_1(x, t).

    The derivative term uses the almost-everywhere rule of the inner stage.
    ``hist`` is a history view of the composite signal xdot + op_1(x), needed
    only when the outer stage is delayed.
    """
    _check_stages((l1, l2), 1)

    def control(x, xdot, t, hist=None):
        z2 = xdot + l1.evaluate(x, t)
        return -l2.evaluate(z2, t, hist) - l1.ae_derivative(x, xdot, t)

    return control


BASELINES = ("conventional", "naive-serial", "conventional-ideal", "conventional-delayed")


@dataclass(frozen=True)
class PlantLaw:
    """A baseline controller u of the double-integrator plant x'' = u + w.

    ``stages`` are a scenario's two stage operators, innermost first:

        conventional:          u = -op_1(xdot, t) - op_2(x, t)
        naive-serial:          u = -(op_2 + op_1)(xdot, t) - op_2(op_1(x, t), t)
        conventional-ideal:    u = -gains * (xdot(t) - v) - op_1(x, t)
        conventional-delayed:  u_i = -gains_i * (xdot_i(t - tau_i(t)) - v) - [op_1(x, t)]_i

    naive-serial is the serial expansion that drops the time-variation cross
    terms of the true composition; it is correct only for static linear
    stages. The velocity-tracking laws take gains and the numeric reference
    v from their ``DelayedAbsoluteVelocity`` outer stage. The delayed form
    consumes the raw held measurement of each agent's own velocity
    (zero-order hold of the last sample), as an implementation without
    local velocity-history correction would; ``delays`` is one ``sim``
    delay object per agent or one shared by all, built by the scenario from
    the outer stage's delay spec. ``tau_max``, the largest of their bounds,
    is derived from them, and is None without delays. Construction checks
    the stage layout: both stages relative feedback in conventional and
    naive-serial, else stage 1 under a velocity-tracking outer stage.
    """

    controller: str
    stages: tuple
    delays: object = None
    tau_max: float | None = field(init=False)
    route = "plant"

    def __post_init__(self):
        stages = tuple(self.stages)
        object.__setattr__(self, "stages", stages)
        if self.controller not in BASELINES:
            raise OperatorError(f"unknown baseline {self.controller!r}")
        if len(stages) != 2:
            raise OperatorError(f"{self.controller} is second order only")
        serial = self.controller in ("conventional", "naive-serial")
        _check_stages(stages, 2 if serial else 1)
        if not serial and not isinstance(stages[1], DelayedAbsoluteVelocity):
            raise OperatorError(
                f"{self.controller} needs a delayed_absolute_velocity outer stage"
            )
        per_agent = self.delays is not None and not callable(self.delays)
        if per_agent and len(self.delays) != self.n:
            raise ShapeError(f"need {self.n} delays, got {len(self.delays)}")
        if (self.controller == "conventional-delayed") != (self.delays is not None):
            raise OperatorError("delays go with conventional-delayed, and only with it")
        tau_max = None if self.delays is None else delay_bound(self.delays)
        object.__setattr__(self, "tau_max", tau_max)

    @property
    def n(self) -> int:
        return self.stages[0].n

    def rhs(self, w=None):
        """The field of the plant state [x; xdot] (``plant_rhs``)."""
        return plant_rhs(self, w)

    def initial_state(self, x0, xdot0) -> np.ndarray:
        """The plant state [x(0); xdot(0)]."""
        return np.concatenate((x0, xdot0))

    def plant(self, states, times):
        """Plant map of a record block: its x and xdot columns."""
        return states[:, :self.n], states[:, self.n:]


def plant_rhs(law: PlantLaw, w=None):
    """Vector field ``field(s, t, hist)`` of the plant state s = [x; xdot].

    ``w`` is None, a constant N-vector or a callable t -> N-vector,
    a disturbance added to u.
    ``hist`` is a history view of s, read only by conventional-delayed. The
    block program's first block is xdot, copied by an identity block, and
    its second, u, sums the terms after it in the order the law is written:
    (-a) + (-b) rounds exactly as -a - b, so every law keeps its rounding.
    Each term block is -L xdot or -L x; naive-serial's last one, -op_1(x),
    feeds its nested product op_2(op_1(x)); a velocity-tracking law's outer
    stage is its delayed step. The field returns [xdot; u].
    """
    n = law.n
    first, second = law.stages
    X, V = slice(0, n), slice(n, 2 * n)
    if law.controller == "conventional":
        terms = [(first, V), (second, X)]
    elif law.controller == "naive-serial":
        terms = [(second, V), (first, V), (first, X)]
    else:
        terms = [(first, X)]
    P = [(0, n, 1.0, np.ones(n))]
    P += [(k * n, cols.start, -1.0, op.L) for k, (op, cols) in enumerate(terms, start=1)]
    sums = [(V, slice(2 * n, 3 * n), True)] if len(terms) > 1 else []
    nested = delayed = None
    if law.controller == "naive-serial":
        nested = (second, slice(3 * n, 4 * n))
    elif law.controller != "conventional":
        delayed = (second, None if law.delays is None else HeldReads(law.delays, n + np.arange(n)))
    return _compile(P, ((1 + len(terms)) * n, 2 * n), n, [None] + [op for op, _ in terms],
                    sums, V, nested=nested, delayed=delayed, feed=w)
