"""DOP853 for ``continuum._solve``: its tableau, its kernels, its dense output.

DOP853 (Hairer, Norsett & Wanner, Solving ODEs I, II.5 and its Fortran
code) with the names, shapes and float64 values of scipy's
``scipy.integrate.DOP853`` class attributes: stages 1..12 (``A``, ``C``),
the 8th-order weights ``B``, the 3rd- and 5th-order error weights ``E3``
and ``E5`` over the 13 stages, and the dense output's extra stages 13..15
(``A_EXTRA``, ``C_EXTRA``) and coefficient rows ``D``.  Each literal is the
value's ``repr``, which round-trips float64 exactly; the tests compare
every array with scipy's, shape included.  The rows of ``A`` and
``A_EXTRA`` are written up to the diagonal and padded with zeros.

A right-hand side is a ``Field``, declared once as straight-line source
over x and the names of its state components.  Called, it runs as a
Python function; ``kernels`` turns it and these literals into
straight-line Python-float code for one step attempt and one step's dense
output, with the field inlined at every stage, so a step makes no Python
call.  ``StackedDense`` holds a solve's interpolants and reads them with
scipy's arithmetic (``horner``): vectorized, or at one point in Python
floats.  Its ``bernstein`` turns each step's interpolant into its
degree-7 Bernstein coefficients (``BERNSTEIN``), whose hull encloses the
interpolant on the step, and ``split`` cuts an enclosure at any s by de
Casteljau.  ``first_piece`` walks the halves of an enclosure, depth first, to the
first piece that it cannot clear, at most HALVINGS deep: the one
subdivision policy of the psi band check and the crossing search.
"""

from __future__ import annotations

import ast
import functools
import math
import textwrap
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np


def _padded(rows, width: int) -> np.ndarray:
    return np.array([row + [0.0] * (width - len(row)) for row in rows])


n_stages = 12
error_estimator_order = 7

A = _padded([
    [],
    [0.05260015195876773],
    [0.0197250569845379, 0.0591751709536137],
    [0.02958758547680685, 0.0, 0.08876275643042054],
    [0.2413651341592667, 0.0, -0.8845494793282861, 0.924834003261792],
    [0.037037037037037035, 0.0, 0.0, 0.17082860872947386, 0.12546768756682242],
    [0.037109375, 0.0, 0.0, 0.17025221101954405, 0.06021653898045596,
     -0.017578125],
    [0.03709200011850479, 0.0, 0.0, 0.17038392571223998,
     0.10726203044637328, -0.015319437748624402, 0.008273789163814023],
    [0.6241109587160757, 0.0, 0.0, -3.3608926294469414, -0.868219346841726,
     27.59209969944671, 20.154067550477894, -43.48988418106996],
    [0.47766253643826434, 0.0, 0.0, -2.4881146199716677, -0.590290826836843,
     21.230051448181193, 15.279233632882423, -33.28821096898486,
     -0.020331201708508627],
    [-0.9371424300859873, 0.0, 0.0, 5.186372428844064, 1.0914373489967295,
     -8.149787010746927, -18.52006565999696, 22.739487099350505,
     2.4936055526796523, -3.0467644718982196],
    [2.273310147516538, 0.0, 0.0, -10.53449546673725, -2.0008720582248625,
     -17.9589318631188, 27.94888452941996, -2.8589982771350235,
     -8.87285693353063, 12.360567175794303, 0.6433927460157636],
], 12)

C = np.array([
    0.0, 0.05260015195876773, 0.0789002279381516, 0.1183503419072274,
    0.2816496580927726, 0.3333333333333333, 0.25, 0.3076923076923077,
    0.6512820512820513, 0.6, 0.8571428571428571, 1.0
])

B = np.array([
    0.054293734116568765, 0.0, 0.0, 0.0, 0.0, 4.450312892752409,
    1.8915178993145003, -5.801203960010585, 0.3111643669578199,
    -0.1521609496625161, 0.20136540080403034, 0.04471061572777259
])

E3 = np.array([
    -0.18980075407240762, 0.0, 0.0, 0.0, 0.0, 4.450312892752409,
    1.8915178993145003, -5.801203960010585, -0.4226823213237919,
    -0.1521609496625161, 0.20136540080403034, 0.02265179219836082, 0.0
])

E5 = np.array([
    0.01312004499419488, 0.0, 0.0, 0.0, 0.0, -1.2251564463762044,
    -0.4957589496572502, 1.6643771824549864, -0.35032884874997366,
    0.3341791187130175, 0.08192320648511571, -0.022355307863886294, 0.0
])

D = np.array([
    [-8.428938276109013, 0.0, 0.0, 0.0, 0.0, 0.5667149535193777,
     -3.0689499459498917, 2.38466765651207, 2.117034582445028,
     -0.871391583777973, 2.2404374302607883, 0.6315787787694688,
     -0.08899033645133331, 18.148505520854727, -9.194632392478356,
     -4.436036387594894],
    [10.427508642579134, 0.0, 0.0, 0.0, 0.0, 242.28349177525817,
     165.20045171727028, -374.5467547226902, -22.113666853125306,
     7.733432668472264, -30.674084731089398, -9.332130526430229,
     15.697238121770845, -31.139403219565178, -9.35292435884448,
     35.81684148639408],
    [19.985053242002433, 0.0, 0.0, 0.0, 0.0, -387.0373087493518,
     -189.17813819516758, 527.8081592054236, -11.57390253995963,
     6.8812326946963, -1.0006050966910838, 0.7777137798053443,
     -2.778205752353508, -60.19669523126412, 84.32040550667716,
     11.99229113618279],
    [-25.69393346270375, 0.0, 0.0, 0.0, 0.0, -154.18974869023643,
     -231.5293791760455, 357.6391179106141, 93.40532418362432,
     -37.45832313645163, 104.0996495089623, 29.8402934266605,
     -43.53345659001114, 96.32455395918828, -39.17726167561544,
     -149.72683625798564],
])

A_EXTRA = _padded([
    [0.056167502283047954, 0.0, 0.0, 0.0, 0.0, 0.0, 0.25350021021662483,
     -0.2462390374708025, -0.12419142326381637, 0.15329179827876568,
     0.00820105229563469, 0.007567897660545699, -0.008298],
    [0.03183464816350214, 0.0, 0.0, 0.0, 0.0, 0.028300909672366776,
     0.053541988307438566, -0.05492374857139099, 0.0, 0.0,
     -0.00010834732869724932, 0.0003825710908356584,
     -0.00034046500868740456, 0.1413124436746325],
    [-0.42889630158379194, 0.0, 0.0, 0.0, 0.0, -4.697621415361164,
     7.683421196062599, 4.06898981839711, 0.3567271874552811, 0.0, 0.0, 0.0,
     -0.0013990241651590145, 2.9475147891527724, -9.15095847217987],
], 16)

C_EXTRA = np.array([
    0.1, 0.2, 0.7777777777777778
])


@dataclass(frozen=True)
class Field:
    """A right-hand side y' = f(x, y), declared once as straight-line source.

    state names the components of y, in order; source is the body of f
    over x and those names, with ``math`` in scope: assignments, then one
    ``return`` of one expression per component.  Calling the field runs
    that body as a Python function of (x, y) on float(y[i]), compiled on
    the first call; ``kernels`` inlines the same body at every stage of a
    step.  Names that start with "_" are the kernels' own.
    """

    state: tuple[str, ...]
    source: str

    def _parts(self) -> tuple[set, list, str]:
        """The names the body reads, its lines before the return, and the
        returned expressions."""
        src = textwrap.dedent(self.source).strip()
        tree = ast.parse(src)
        ret = tree.body[-1]
        names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        if not (isinstance(ret, ast.Return) and isinstance(ret.value, ast.Tuple)
                and len(ret.value.elts) == len(self.state)):
            raise ValueError(f"a field of {len(self.state)} components must end "
                             "in one return of as many expressions")
        if any(name.startswith("_") for name in names | set(self.state)):
            raise ValueError("a field's names must not start with '_'")
        return names, src.splitlines()[:ret.lineno - 1], ast.get_source_segment(src, ret.value)

    @functools.cached_property
    def _function(self):
        _, body, ret = self._parts()
        src = ["def field(x, _y):", f"    {_tup(self.state)} = map(float, _y)"]
        src += [f"    {line}" for line in body] + [f"    return ({ret})"]
        return _compiled(src, f"<field {self.state}>")["field"]

    def __call__(self, x, y) -> tuple:
        return self._function(x, y)


def _tup(names) -> str:
    return ", ".join(names) + ","


def _compiled(src: list, name: str) -> dict:
    namespace = {"math": math, "_sqrt": math.sqrt}
    exec(compile("\n".join(src), name, "exec"), namespace)
    return namespace


@functools.cache
def kernels(field: Field):
    """DOP853's step attempt and dense output for one field, (attempt, dense).

    Both are straight-line Python-float code over the nonzero entries of
    the tableau above, with the field's source inlined at every stage, so
    a step calls no Python function; generated once per field on first
    use.  Every sum runs left to right over the stages, with scipy's
    grouping: y + (a.K)*h for a stage, y + h*(b.K) for the update, h*(d.K)
    for a dense row.

    attempt(t, h, y, f, tol) -> (error_norm, y_new, f_new, K) makes the
        12 evaluations of one step from (t, y) with slope f.  error_norm is
        scipy's DOP853 estimate from E5 and E3 at scale
        tol + max(|y|, |y_new|)*tol; K holds the 13 stages, flat.
    dense(t, h, y, y_new, K) -> 7*d floats makes the 3 extra stages and
        returns the step's interpolant rows in StackedDense's order, flat:
        h*D[3].K .. h*D[0].K, 2*dy - h*(f_new + f), h*f - dy and dy, with
        dy = y_new - y.
    """
    n, d = n_stages, len(field.state)
    comps = range(d)
    names, body, ret = field._parts()

    def stage(s):
        return [f"_k{s}_{j}" for j in comps]

    def combo(coefs, j):
        # the left-to-right sum of c*K[i] over the nonzero c, component j
        return " + ".join(f"{c!r}*_k{i}_{j}" for i, c in enumerate(coefs.tolist()) if c != 0.0)

    def call(s, x, states):
        # the field at abscissa x and the state expressions, into stage s
        lines = [f"x = {x}"] if "x" in names else []
        lines += [f"{v} = {e}" for v, e in zip(field.state, states) if v in names]
        return [f"    {line}" for line in lines + body + [f"{_tup(stage(s))} = {ret}"]]

    def step_stage(s, c, a):
        return call(s, f"_t + {float(c)!r}*_h", [f"_y{j} + ({combo(a[:s], j)})*_h" for j in comps])

    y, y_new = [f"_y{j}" for j in comps], [f"_n{j}" for j in comps]
    K = _tup(k for s in range(n + 1) for k in stage(s))
    src = ["def attempt(_t, _h, _y, _f, _tol):",
           f"    {_tup(y)} = _y",
           f"    {_tup(stage(0))} = _f"]
    for s in range(1, n):
        src += step_stage(s, C[s], A[s])
    src += [f"    _n{j} = _y{j} + _h*({combo(B, j)})" for j in comps]
    src += call(n, "_t + _h", y_new)
    for j in comps:
        src += [f"    _a, _b = abs(_y{j}), abs(_n{j})",
                # np.maximum's NaN propagation, on floats
                "    _s = _tol + (_a if _a >= _b or _a != _a else _b)*_tol",
                f"    _e5_{j} = ({combo(E5, j)})/_s",
                f"    _e3_{j} = ({combo(E3, j)})/_s"]
    src += [f"    _e5 = {' + '.join(f'_e5_{j}*_e5_{j}' for j in comps)}",
            f"    _e3 = {' + '.join(f'_e3_{j}*_e3_{j}' for j in comps)}",
            # the limit 0 also where 0.01*e3 underflows to 0 beside e5 = 0
            f"    _err = 0.0 if _e5 == 0.0 else abs(_h)*_e5/_sqrt((_e5 + 0.01*_e3)*{d})",
            f"    return _err, ({_tup(y_new)}), ({_tup(stage(n))}), ({K})",
            "",
            "def dense(_t, _h, _y, _n, _K):",
            f"    {_tup(y)} = _y",
            f"    {_tup(y_new)} = _n",
            f"    {K} = _K"]
    for s, (c, a) in enumerate(zip(C_EXTRA, A_EXTRA), start=n + 1):
        src += step_stage(s, c, a)
    src += [f"    _dy{j} = _n{j} - _y{j}" for j in comps]
    rows = [f"_h*({combo(row, j)})" for row in D[::-1] for j in comps]
    rows += [f"2*_dy{j} - _h*(_k{n}_{j} + _k0_{j})" for j in comps]
    rows += [f"_h*_k0_{j} - _dy{j}" for j in comps]
    rows += [f"_dy{j}" for j in comps]
    src.append(f"    return ({_tup(rows)})")
    namespace = _compiled(src, f"<DOP853 kernels, field {field.state}>")
    return namespace["attempt"], namespace["dense"]


def _bernstein_matrix() -> np.ndarray:
    """(8, 8) map from a step's interpolant terms (F rows 0..6, then y_old)
    to its degree-7 Bernstein coefficients in s.

    The dense output's Horner scheme (scipy's Dop853DenseOutput) multiplies
    row r of F by s at each even and by 1 - s at each odd position p in
    r..6, so the row is the coefficient of s^a (1 - s)^b, a and b the
    numbers of such p; y_old's is a = b = 0.  s^a (1-s)^b (s + 1 - s)^(7-a-b)
    has the coefficient C(7-a-b, i-a) / C(7, i) on s^i (1-s)^(7-i) C(7, i).
    """
    powers = [(sum(p % 2 == 0 for p in range(r, 7)), sum(p % 2 == 1 for p in range(r, 7)))
              for r in range(7)] + [(0, 0)]
    return np.array([[math.comb(7 - a - b, i - a) / math.comb(7, i) if a <= i <= 7 - b else 0.0
                      for i in range(8)] for a, b in powers])


#: Dense-output rows of one step (F rows 0..6 in StackedDense order, then
#: y_old) to the degree-7 Bernstein coefficients of its interpolant.
BERNSTEIN = _bernstein_matrix()


#: de Casteljau halvings of a step before an enclosure that cannot decide
#: is taken as it stands, by ``first_piece`` for the psi band check and
#: the crossing search.
HALVINGS = 4


def split(b, s) -> tuple[np.ndarray, np.ndarray]:
    """de Casteljau: Bernstein coefficients b (along the first axis) of
    [0, 1] cut at s, as those of [0, s] and of [s, 1]; s broadcasts against
    b[0], one cut per label."""
    b, u = np.asarray(b, dtype=float), 1 - s
    left, right = [b[0]], [b[-1]]
    while len(b) > 1:
        b = u * b[:-1] + s * b[1:]
        left.append(b[0])
        right.append(b[-1])
    return np.array(left), np.array(right[::-1])


def first_piece(b, lo, hi, clear, take, depth=HALVINGS):
    """The first piece (lo, hi, b) of [lo, hi], on which b are Bernstein
    coefficients, where clear(b, lo, hi) is false and take(lo, hi, depth)
    is true; None where there is none.  A piece that is neither clear nor
    taken is halved by ``split``, left before right, while depth > 0."""
    if clear(b, lo, hi):
        return None
    if take(lo, hi, depth):
        return lo, hi, b
    if depth == 0:
        return None
    mid = 0.5 * (lo + hi)
    left, right = split(b, 0.5)
    return (first_piece(left, lo, mid, clear, take, depth - 1)
            or first_piece(right, mid, hi, clear, take, depth - 1))


def horner(x, t_old, h, rows):
    """The dense output at abscissae x of the steps with left ends t_old,
    lengths h and interpolant rows (F rows 0..6, then y_old, gathered per
    abscissa by ``StackedDense``): x.shape + (components,), in
    scipy's Dop853DenseOutput arithmetic.  rows is read in order, once, and
    the first row is scaled in place, so it must be the caller's own."""
    s = ((x - t_old) / h)[..., None]
    u = 1 - s
    rows = iter(rows)
    y = next(rows)
    y *= s
    for i in range(1, 7):
        y += next(rows)
        y *= u if i % 2 else s
    y += next(rows)
    return y


class StackedDense:
    """The DOP853 interpolants of one solve, stacked, and their evaluator.

    Segment k covers [ts[k], ts[k+1]] and reads y_old[k] plus the Horner
    polynomial in s = (x - t_old[k]) / h[k] whose coefficient rows are
    F[k, 0..6], in the order scipy's Dop853DenseOutput adds them, with
    t_old = ts[:-1] and h = diff(ts), the step's own subtraction.  Called
    like scipy's OdeSolution: x -> (d,) for a float, 0-d or one-element
    array (a plain-float loop), (d,) + x.shape for any other array.  Range
    checks are the caller's.
    """

    def __init__(self, ts, y_old, F):
        self.ts = np.asarray(ts, dtype=float)
        self.t_old = self.ts[:-1]
        self.h = np.diff(self.ts)
        self.y_old = np.asarray(y_old, dtype=float)
        self.F = np.array(F, dtype=float)
        # scipy starts from zeros, so its first sum turns a -0.0 into +0.0
        self.F[:, 0] += 0.0
        # the single-point path reads the same numbers as Python floats:
        # segment k's (7 coefficients, y_old) per component, on its first read
        self._ts = self.ts.tolist()
        self._rows = [None] * len(self.h)

    def bernstein(self, col: int) -> np.ndarray:
        """The degree-7 Bernstein coefficients in s of component col on every
        step, (steps, 8): one (steps, 8) @ (8, 8) product.  The convex hull
        of a polynomial's Bernstein coefficients contains its graph (Farouki
        & Rajan, CAGD 4, 1987), so a step's coefficients enclose its
        interpolant."""
        return np.column_stack([self.F[:, :, col], self.y_old[:, col]]) @ BERNSTEIN

    def point(self, x: float) -> tuple:
        """The components at one abscissa, as Python floats."""
        k = min(max(bisect_left(self._ts, x) - 1, 0), len(self._rows) - 1)
        if self._rows[k] is None:
            comps = list(zip(*self.F[k].tolist(), self.y_old[k].tolist()))
            self._rows[k] = self._ts[k], float(self.h[k]), comps
        t_old, h, comps = self._rows[k]
        s = (x - t_old) / h
        u = 1 - s
        return tuple(
            ((((((c0 * s + c1) * u + c2) * s + c3) * u + c4) * s + c5) * u + c6) * s + y0
            for c0, c1, c2, c3, c4, c5, c6, y0 in comps
        )

    def __call__(self, x):
        if isinstance(x, float):
            return np.array(self.point(x))
        x = np.asarray(x, dtype=float)
        if x.size == 1:
            return np.array(self.point(x.item())).reshape(self.y_old.shape[1:] + x.shape)
        k = np.searchsorted(self.ts, x, side="left") - 1
        np.clip(k, 0, len(self.h) - 1, out=k)
        # one gather per row as horner reads it, never F[k] (..., 7, d), so
        # that a read holds no more than two; take is several times faster
        # than fancy indexing here
        rows = (a.take(k, axis=0) for a in (*self.F.transpose(1, 0, 2), self.y_old))
        return np.moveaxis(horner(x, self.t_old[k], self.h[k], rows), -1, 0)
