"""The Dormand-Prince 8(5,3) tableau of ``continuum._solve``, as literals; its kernels.

DOP853 (Hairer, Norsett & Wanner, Solving ODEs I, II.5 and its Fortran
code) with the names, shapes and float64 values of scipy's
``scipy.integrate.DOP853`` class attributes: stages 1..12 (``A``, ``C``),
the 8th-order weights ``B``, the 3rd- and 5th-order error weights ``E3``
and ``E5`` over the 13 stages, and the dense output's extra stages 13..15
(``A_EXTRA``, ``C_EXTRA``) and coefficient rows ``D``.  Each literal is the
value's ``repr``, which round-trips float64 exactly; the tests compare
every array with scipy's, shape included.  The rows of ``A`` and
``A_EXTRA`` are written up to the diagonal and padded with zeros.

``kernels`` turns these literals into straight-line Python-float code for
one step attempt and one step's dense output; ``BERNSTEIN`` and ``halves``
bound a step's interpolant through its Bernstein coefficients.
"""

from __future__ import annotations

import functools
import math

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


@functools.cache
def kernels(d: int):
    """DOP853's step attempt and dense output for states of d components.

    Both are straight-line Python-float code over the nonzero entries of
    the tableau above, generated once per d on first use.  Every sum
    runs left to right over the stages, with scipy's grouping:
    y + (a.K)*h for a stage, y + h*(b.K) for the update, h*(d.K) for a
    dense row.

    attempt(fun, t, h, y, f, tol) -> (error_norm, y_new, f_new, K) makes the
        12 evaluations of one step from (t, y) with slope f.  error_norm is
        scipy's DOP853 estimate from E5 and E3 at scale
        tol + max(|y|, |y_new|)*tol; K holds the 13 stages, flat.
    dense(fun, t, h, y, y_new, K) -> 7*d floats makes the 3 extra stages
        and returns the step's interpolant rows in StackedDense's order,
        flat: h*D[3].K .. h*D[0].K, 2*dy - h*(f_new + f), h*f - dy and dy,
        with dy = y_new - y.
    """
    n = n_stages
    comps = range(d)

    def tup(names):
        return ", ".join(names) + ","

    def stage(s):
        return [f"k{s}_{j}" for j in comps]

    def combo(coefs, j):
        # the left-to-right sum of c*K[i] over the nonzero c, component j
        return " + ".join(f"{c!r}*k{i}_{j}" for i, c in enumerate(coefs.tolist()) if c != 0.0)

    def call(s, c, a):
        args = tup(f"y{j} + ({combo(a[:s], j)})*h" for j in comps)
        return f"    {tup(stage(s))} = fun(t + {float(c)!r}*h, ({args}))"

    y, y_new = [f"y{j}" for j in comps], [f"n{j}" for j in comps]
    K = tup(k for s in range(n + 1) for k in stage(s))
    src = ["def attempt(fun, t, h, y, f, tol):",
           f"    {tup(y)} = y",
           f"    {tup(stage(0))} = f"]
    src += [call(s, C[s], A[s]) for s in range(1, n)]
    src += [f"    n{j} = y{j} + h*({combo(B, j)})" for j in comps]
    src.append(f"    {tup(stage(n))} = fun(t + h, ({tup(y_new)}))")
    for j in comps:
        src += [f"    a, b = abs(y{j}), abs(n{j})",
                # np.maximum's NaN propagation, on floats
                "    s = tol + (a if a >= b or a != a else b)*tol",
                f"    e5_{j} = ({combo(E5, j)})/s",
                f"    e3_{j} = ({combo(E3, j)})/s"]
    src += [f"    e5 = {' + '.join(f'e5_{j}*e5_{j}' for j in comps)}",
            f"    e3 = {' + '.join(f'e3_{j}*e3_{j}' for j in comps)}",
            # the limit 0 also where 0.01*e3 underflows to 0 beside e5 = 0
            f"    err = 0.0 if e5 == 0.0 else abs(h)*e5/sqrt((e5 + 0.01*e3)*{d})",
            f"    return err, ({tup(y_new)}), ({tup(stage(n))}), ({K})",
            "",
            "def dense(fun, t, h, y, n, K):",
            f"    {tup(y)} = y",
            f"    {tup(y_new)} = n",
            f"    {K} = K"]
    src += [call(s, c, a) for s, (c, a)
            in enumerate(zip(C_EXTRA, A_EXTRA), start=n + 1)]
    src += [f"    dy{j} = n{j} - y{j}" for j in comps]
    rows = [f"h*({combo(row, j)})" for row in D[::-1] for j in comps]
    rows += [f"2*dy{j} - h*(k{n}_{j} + k0_{j})" for j in comps]
    rows += [f"h*k0_{j} - dy{j}" for j in comps]
    rows += [f"dy{j}" for j in comps]
    src.append(f"    return ({tup(rows)})")
    namespace = {"sqrt": math.sqrt}
    exec(compile("\n".join(src), f"<DOP853 kernels, d={d}>", "exec"), namespace)
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


def halves(b: list) -> tuple[list, list]:
    """de Casteljau: the Bernstein coefficients of both halves of [0, 1]."""
    left, right = [b[0]], [b[-1]]
    while len(b) > 1:
        b = [(p + q) / 2 for p, q in zip(b, b[1:])]
        left.append(b[0])
        right.append(b[-1])
    return left, right[::-1]
