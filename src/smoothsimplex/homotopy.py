"""Evaluable deformation retractions of the standard simplices.

Three constructions, each returned as an :class:`EvaluableHomotopy`:

* ``build_halfopen_deformation(n, k)`` retracts the half-open simplex
  ``{z_k > 0}`` onto the half-open horn (the horn minus the boundary of the
  face opposite ``k``), by the inductive cone construction: a radial phase
  toward vertex ``k`` damped by an interior bump, then a staged retraction
  of the boundary collar.

* ``build_full_horn_deformation(n, k)`` retracts all of Δ^n onto the horn
  ``Λ^n_k``.  The half-open composite is softened near the closure of the
  face opposite ``k`` so it extends to the whole simplex, and the leftover
  shell along that face is cleaned up by good-neighborhood stages anchored
  at the face's own simplices, then a flow inside the face.

* ``build_boundary_homotopy_T(p, eps)`` is the barycenter-fixing homotopy
  that deforms the ε-collar of the boundary onto the boundary.

Each is built around vertex 0 and kept as one record, a stage table or one
step and a swap of coordinates, that ``H(z, s)`` and ``H._path(z, ts)`` both
read (see :class:`EvaluableHomotopy`).

Everything here runs on plain float tuples; outputs are renormalized after
every stage.  The deformations push coordinates to exact floating-point
zero (the cut-offs have exactly flat ends), so the retraction contracts
hold to well below the 1e-9 test tolerance.

Every constant below was chosen so that, within one stage, the regions
where different good neighborhoods act are pairwise disjoint, while the
union of the full-effect regions still covers everything the stage must
retract; the tests check both facts on grids.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, partial
from itertools import combinations
from operator import itemgetter
from typing import Callable, Optional, Sequence

from .geometry import Bary, OutOfDomain, _check_floats, _complement
from .steps import SPLICE, smooth_step

Vec = tuple[float, ...]
Step = Callable[[Vec, float], Vec]

#: interior-bump breakpoints (a_q, b_q) on the q-simplex factor: the bump is
#: 0 where min coord <= a_q and 1 where min coord >= b_q
CUT = {1: (0.25, 1.0 / 3.0), 2: (1.0 / 9.0, 0.125)}

#: central-disk threshold: the disk is {min coord >= DISK[p]}, the collar
#: A^p is its complement; T pushes points off the disk, and collar_core(p)
#: retracts all of A^p onto the boundary
DISK = {1: 0.4, 2: 0.2, 3: 0.07}

#: the two phases of one cone step: radial toward the cone vertex, then the
#: collar retraction of the base
CONE_PHASES = ("radial", "collar")

#: collar retraction stages per ambient dimension: (face_dim, eps) applied
#: to the good neighborhoods U_I(eps) of the open face_dim-simplices, in
#: decreasing face dimension
COLLAR_STAGES = {
    1: ((0, 0.45),),
    2: ((1, 0.2), (0, 0.48)),
    3: ((2, 0.09), (1, 0.2), (0, 0.48)),
}

#: breakpoints of the smooth step that softens the collar phase near the
#: closed face opposite the horn vertex; flat zero below the first keeps a
#: neighborhood of that face's boundary exactly fixed during the first
#: full-horn phase
SHELL = (0.02, 0.04)

#: cleanup stages of the full-horn deformation, anchored at the simplices
#: of the face opposite the horn vertex: (face_dim, eps)
FAR_STAGES = {2: ((0, 0.48),), 3: ((1, 0.1), (0, 0.48))}

#: activation of the final in-face flow: 1 on the far face itself, 0 from
#: distance FACE_RAMP[1] on; one minus the smooth step on FACE_RAMP
FACE_RAMP = (0.005, 0.01)

#: the dimensions the deformations are built in
DIMS = (1, 2, 3)


def _schedule(names: Sequence[str]) -> tuple:
    """Named stages on equal subintervals of [0, 1], as ``phase_times``
    slices them."""
    m = len(names)
    return tuple((nm, (i / m, (i + 1) / m)) for i, nm in enumerate(names))


# The stage kernels below divide and rejoin points inline, with loops into
# lists for the reason ``_renormalized`` gives.  Where a cut-off is often
# flat, it is read off its flat ends and calls ``smooth_step`` only between
# them.

_FLAT0, _FLAT1 = SPLICE.a, SPLICE.b   # SPLICE is 0 below, 1 above


def _renormalized(out: list) -> Vec:
    """``out`` over its sum, a left fold: Python 3.12's ``sum()`` compensates
    rounding, which would change last bits between versions.  A total of
    exactly 1.0 returns ``out`` as it is: ``c / 1.0`` is ``c`` for every
    float ``c``, -0.0 and subnormals included, and a NaN or inf total is
    never 1.0.  A loop fills the list, since a comprehension is a nested
    call on Python 3.11."""
    tot = 0.0
    for c in out:
        tot += c
    if tot == 1.0:
        return tuple(out)
    res = []
    for c in out:
        res.append(c / tot)
    return tuple(res)


def _run_stages(stages: Sequence[Step], z: Vec, s: float, first: int = 0) -> Vec:
    """The composite of ``stages`` on equal subintervals of [0, 1], resumed
    at stage ``first`` from its input ``z``; each local time is computed
    when its stage is reached, and a 0 one ends it."""
    if s <= 0.0:
        return z
    m, k = len(stages), first
    while k < m:   # a while loop: cheaper than a range on Python 3.11
        u = m * s - k
        local = 0.0 if u <= _FLAT0 else 1.0 if u >= _FLAT1 else smooth_step(u, _FLAT0, _FLAT1)
        if local <= 0.0:   # also just past _FLAT0, where exp underflows
            break
        z = stages[k](z, local)
        k += 1
    return z


# -- one cone step and the good-neighborhood stages --------------------------


def _radial1(z: Vec, s: float) -> Vec:
    """Δ^1 onto vertex 0: (1-(1-s)t)(0) + (1-s)t(1)."""
    t2 = (1.0 - s) * z[1]
    return (1.0 - t2, t2)


def _collar_flat(s: float) -> bool:
    """The test by which a cone step's collar clock ``2s - 1`` is flat at 1.
    The step reads its local time ``s`` only through that clock and the
    radial damping, which runs while the clock is 0, so from such an ``s``
    on its output is bit for bit its output at 1."""
    return 2.0 * s - 1.0 >= _FLAT1


@cache
def _cone_step(p: int, softened: bool = False) -> Step:
    """Δ^(p+1) seen as the cone on Δ^p with vertex 0: a radial phase toward
    the vertex damped by the interior bump, then the collar retraction of
    the base.  ``softened`` damps the collar near the closed base, so the
    step extends across it."""
    (c0, c1), collar = CUT[p], collar_core(p)
    h0, h1 = SHELL
    vertex = (1.0,) + (0.0,) * (p + 1)

    def step(z: Vec, s: float) -> Vec:
        z0 = z[0]
        t = 1.0 - z0
        if t <= 0.0 or s <= 0.0:
            return z
        x = []   # the base point: z[1:] / t
        for c in z[1:]:
            x.append(c / t)
        mx = min(x)
        g = 0.0 if mx <= c0 else 1.0 if mx >= c1 else smooth_step(mx, c0, c1)
        u = 2.0 * s - 1.0   # two_phase(s), the collar phase first; see _collar_flat
        s2 = 0.0 if u <= _FLAT0 else 1.0 if u >= _FLAT1 else smooth_step(u, _FLAT0, _FLAT1)
        if s2 <= 0.0:   # the radial phase
            g *= smooth_step(2.0 * s, _FLAT0, _FLAT1)
        elif g >= 1.0:   # (1 - g) t = 0: at the vertex, whatever the collar does
            return vertex
        else:
            if softened:
                # 1 away from the closure of the far-face boundary, flat 0 near it
                s2 *= 1.0 - (1.0 - smooth_step(z0, h0, h1)) * (1.0 - smooth_step(mx, h0, h1))
            x = collar(x, s2)
        t *= 1.0 - g
        if t <= 0.0:
            return vertex
        # (1 - t)(0) + t x, renormalized
        out = [1.0 - t]
        for c in x:
            out.append(t * c)
        return _renormalized(out)

    return step


@cache
def half_open_core(r: int) -> Step:
    """Deformation of ``{z_0 > 0}`` in Δ^r onto the half-open 0-horn."""
    if r == 1:
        return lambda v, s: v if s <= 0.0 else _radial1(v, s)
    return _cone_step(r - 1)


def _nbhd_stage(n: int, face_dim: int, eps: float, vertices: Sequence[int]
                ) -> Step:
    """One stage in Δ^n: retract through ``Φ_I`` within the first good
    neighborhood ``U_I(eps)`` of an open ``face_dim``-simplex spanned by
    ``vertices`` that acts: z > 0 on I, mass on I above 1 - eps and a
    positive bump at the position in the face.  The constants make at most
    one act.  ``Φ_I`` and ``Φ_I⁻¹`` are inline, as ``geometry.phi_I`` computes them."""
    lo = 1.0 - eps
    core = _radial1 if face_dim == n - 1 else half_open_core(n - face_dim)
    c0, c1 = CUT[face_dim] if face_dim > 0 else (None, None)
    plan = []   # I, J, and the (position, index) pairs that Φ_I⁻¹ writes
    for I in combinations(sorted(vertices), face_dim + 1):
        J = _complement(I, n)
        plan.append((I, J, tuple(enumerate(I)), tuple(enumerate(J, 1))))

    def step(z: Vec, sigma: float) -> Vec:
        for I, J, I_at, J_at in plan:
            if c0 is None:
                # a vertex: lo > 1/2, so at most one coordinate passes it
                S = z[I[0]]
                if S <= lo:
                    continue
                g, u = 1.0, (1.0,)   # z_I / S
            else:
                S = 0.0
                for i in I:
                    if z[i] <= 0.0:   # outside U_I
                        S = 0.0
                        break
                    S += z[i]
                if S <= lo:
                    continue
                u = []   # Φ_I's first factor z_I / S
                for i in I:
                    u.append(z[i] / S)
                g = smooth_step(min(u), c0, c1)
                if not g > 0.0:
                    continue
            v = [S]   # Φ_I's second factor (S, z_J)
            for j in J:
                v.append(z[j])
            s = g * sigma   # half_open_core's s <= 0 guard, also before _radial1
            if s > 0.0:
                v = core(v, s)
            out = [0.0] * (n + 1)   # Φ_I⁻¹, renormalized
            v0 = v[0]
            for a, i in I_at:
                out[i] = v0 * u[a]
            for b, j in J_at:
                out[j] = v[b]
            return _renormalized(out)
        return z

    return step


@cache
def collar_core(p: int) -> Step:
    """Staged retraction of Δ^p's collar onto the boundary, fixing the
    boundary pointwise.  Its stages' good neighborhoods alone decide where
    it acts; they cover the collar ``{min coord < DISK[p]}``."""
    return partial(_run_stages, [_nbhd_stage(p, fd, eps, range(p + 1))
                                 for fd, eps in COLLAR_STAGES[p]])


# -- full-horn deformation ----------------------------------------------------


def _face_flow(p: int) -> Step:
    """The collar retraction inside the far face Δ^p, ramped in near it."""
    collar = collar_core(p)
    r0, r1 = FACE_RAMP

    def step(z: Vec, sigma: float) -> Vec:
        z0 = z[0]
        if z0 >= r1:
            return z
        t = 1.0 - z0   # above 1 - r1, so the point stays off the vertex
        x = []
        for c in z[1:]:
            x.append(c / t)
        out = [1.0 - t]
        for c in collar(x, (1.0 - smooth_step(z0, r0, r1)) * sigma):
            out.append(t * c)
        return _renormalized(out)

    return step


@cache
def _full_horn_stages(n: int) -> tuple[tuple[str, Step], ...]:
    """Named stages of the deformation of Δ^n (n >= 2) onto the horn at
    vertex 0.  The first, the softened horn, is the one cone step: it has
    ended once ``_collar_flat`` holds at its local time."""
    far = tuple((f"far-face-dim-{fd}", _nbhd_stage(n, fd, eps, range(1, n + 1)))
                for fd, eps in FAR_STAGES[n])
    return (("softened-horn", _cone_step(n - 1, softened=True)),
            *far, ("face-flow", _face_flow(n - 1)))


# -- public wrappers ----------------------------------------------------------


@dataclass
class EvaluableHomotopy:
    """A deterministic homotopy ``(point, s) -> point`` with a declared
    domain and named stage schedule.

    One record: a stage table ``_stages`` on equal subintervals of [0, 1],
    or else one step ``_step`` at the global time, run between two passes
    of ``_swap``, which moves the horn vertex to 0.  A table is the
    full-horn one, whose first stage is the softened cone step; ``_path``
    reads that.  ``H(z, s)`` runs the record for one
    time, not through ``_path``: a one-time list and a second output check
    would cost ``deform`` throughput."""

    domain: str
    p: int
    schedule: tuple[tuple[str, tuple[float, float]], ...]
    _step: Optional[Step] = field(repr=False, default=None)
    _domain_check: Callable[[Vec], bool] = field(repr=False, default=None)
    _stages: tuple[Step, ...] = field(repr=False, default=())
    _swap: Callable[[Vec], Vec] = field(repr=False, default=tuple)

    def __call__(self, point, s: float) -> Bary:
        z, s, swap = self.checked_point(point, s), float(s), self._swap
        out = _run_stages(self._stages, swap(z), s) if self._stages else self._step(swap(z), s)
        return Bary.of_floats(swap(out))

    def _path(self, z: Vec, ts: Sequence[float]) -> list[Vec]:
        """``[H(z, s).coords for s in ts]``, for a float point ``z`` of the
        domain and float times that do not decrease in [0, 1], as the caller
        vouches; only the outputs are checked.  Each stage that has ended by
        a time runs to its end once, and later times resume after it.  A
        stage has ended once SPLICE is flat at 1; the first, the softened
        horn, already once ``_collar_flat`` holds at its local time, so it
        runs once per horn point.  A one-step record is a table of no
        stages: each time runs the step."""
        stages, step, swap = self._stages, self._step, self._swap
        m, first, done, out = len(stages), 0, swap(z), []
        for s in ts:
            # the rest of the stages, none if first == m, run from where
            # the last ended one left off
            while first < m:
                u = m * s - first
                if u < _FLAT1 and (first or u <= _FLAT0
                                   or not _collar_flat(smooth_step(u, _FLAT0, _FLAT1))):
                    break
                done = stages[first](done, 1.0)
                first += 1
            w = swap(_run_stages(stages, done, s, first) if m else step(done, s))
            _check_floats(w)
            out.append(w)
        return out

    def checked_point(self, point, s: float) -> Vec:
        """``point`` as floats, checked to lie in the domain at ``s`` in [0, 1]."""
        z = (point.as_floats() if isinstance(point, Bary)
             else tuple(map(float, point)))
        if len(z) != self.p + 1:
            raise ValueError(f"expected a point of Δ^{self.p}")
        if not isinstance(point, Bary):   # a Bary was checked when it was built
            _check_floats(z)
        if not 0.0 <= s <= 1.0:
            raise ValueError(f"homotopy time {s} outside [0, 1]")
        if self._domain_check is not None and not self._domain_check(z):
            raise OutOfDomain(f"point {z} outside {self.domain}")
        return z

    def stage_of(self, s: float) -> str:
        """The name of the stage that runs at time ``s`` in [0, 1] (the
        earlier one at a shared end); the intervals tile [0, 1]."""
        if not 0.0 <= s <= 1.0:
            raise ValueError(f"homotopy time {s} outside [0, 1]")
        return next(name for name, (lo, hi) in self.schedule if lo <= s <= hi)


def _swap(n: int, k: int) -> Callable[[Vec], Vec]:
    """Coordinates 0 and ``k`` of a point of Δ^n swapped; for ``k`` 0,
    ``tuple``, which returns a tuple as it is, with no copy."""
    return itemgetter(k, *range(1, k), 0, *range(k + 1, n + 1)) if k else tuple


def _check_horn(n: int, k: int) -> None:
    if n not in DIMS:
        raise ValueError(f"dimension {n} is not one of the built dimensions {DIMS}")
    if not 0 <= k <= n:
        raise ValueError(f"horn index {k} out of range")


def build_halfopen_deformation(n: int, k: int) -> EvaluableHomotopy:
    """Deformation of the half-open simplex ``{z_k > 0}`` in Δ^n onto the
    half-open horn at ``k`` (Λ^n_k minus the boundary of the opposite face).
    """
    _check_horn(n, k)
    # the base Δ^0 of the cone on Δ^1 has no collar
    names = CONE_PHASES if n > 1 else CONE_PHASES[:1]
    return EvaluableHomotopy(
        domain=f"half-open simplex z_{k}>0 in dim {n}",
        p=n, schedule=_schedule(names),
        _step=half_open_core(n), _swap=_swap(n, k),
        _domain_check=lambda z: z[k] > 0.0)


def build_full_horn_deformation(n: int, k: int) -> EvaluableHomotopy:
    """Deformation of Δ^n onto the horn ``Λ^n_k``, fixing the horn pointwise."""
    _check_horn(n, k)
    if n == 1:   # the formula itself, also at s = 0
        return EvaluableHomotopy(domain="Δ^1", p=1, schedule=_schedule(CONE_PHASES[:1]),
                                 _step=_radial1, _swap=_swap(1, k))
    names, steps = zip(*_full_horn_stages(n))
    return EvaluableHomotopy(domain=f"Δ^{n}", p=n, schedule=_schedule(names),
                             _stages=steps, _swap=_swap(n, k))


def build_boundary_homotopy_T(p: int, eps: float) -> EvaluableHomotopy:
    """Homotopy of Δ^p fixing the barycenter, restricting to a deformation
    of the ε-collar ``{some coord <= eps}`` onto the boundary."""
    _check_horn(p, 0)
    if not 0.0 < eps < 1.0 / (p + 1):
        raise ValueError(f"eps={eps} outside (0, 1/{p + 1})")
    collar = collar_core(p)
    theta_c = 1.0 - (p + 1) * DISK[p]     # radial position of the disk edge
    theta_mid = 0.5 * (theta_c + 1.0)
    p0 = theta_mid - 0.25 * (1.0 - theta_c)   # the push ramps in on [p0, theta_mid]
    b_rho = 1.0 - (p + 1) * eps           # theta at the collar's inner edge
    r0 = 0.5 * b_rho                      # rho ramps in on [r0, b_rho]
    b = 1.0 / (p + 1)   # each coordinate of the barycenter

    def ev(z: Vec, s: float) -> Vec:
        theta = 1.0 - (p + 1) * min(z)
        if theta <= 0.0 or s <= 0.0:
            return z
        local = smooth_step(theta, r0, b_rho) * s
        if local <= 0.0:
            return z
        # two_phase(local): the radial push, then the collar
        s1 = smooth_step(2.0 * local, _FLAT0, _FLAT1)
        s2 = smooth_step(2.0 * local - 1.0, _FLAT0, _FLAT1)
        # radial push off the central disk, along the ray from the barycenter
        target = theta + (1.0 - smooth_step(theta, p0, theta_mid)) * (theta_mid - theta)
        theta1 = theta + s1 * (target - theta)
        scale = theta1 / theta
        out = []
        for c in z:
            out.append(b + scale * (c - b))
        z = _renormalized(out)
        return collar(z, s2) if s2 > 0.0 else z

    return EvaluableHomotopy(domain=f"Δ^{p}", p=p,
                             schedule=_schedule(("radial-push", "collar")), _step=ev)
