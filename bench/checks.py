"""Independent checks of the program's outputs.

Nothing here imports ideallat.  Lattices are compared through a separately
written Hermite normal form (modulo a determinant), ring arithmetic comes
from ``ring`` (index arithmetic), polynomial ideals are compared with
sympy's Groebner bases over ℚ, and the remaining answers are held to
properties the method must have.  Every check function returns a list of
problems; an empty list means the output passed.
"""

import cmath
import itertools
import math
from fractions import Fraction

import numpy as np

import inputs
import ring

# ---------------------------------------------------------------------------
# integer lattices


def xgcd(a, b):
    """(g, u, v) with u*a + v*b = g = gcd(a, b) >= 0."""
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        a, x0, y0 = -a, -x0, -y0
    return a, x0, y0


def pivots(H):
    return [next(j for j, x in enumerate(row) if x) for row in H]


def hnf_problems(H):
    """Shape of a row HNF: echelon, positive pivots, entries above them in [0, pivot)."""
    if any(not any(row) for row in H):
        return ["zero row in HNF"]
    piv = pivots(H)
    if piv != sorted(set(piv)):
        return ["rows are not in echelon form"]
    out = []
    for i, c in enumerate(piv):
        if H[i][c] <= 0:
            out.append("pivot %d is not positive" % i)
        for k in range(i):
            if not 0 <= H[k][c] < H[i][c]:
                out.append("entry (%d, %d) is not reduced by its pivot" % (k, c))
    return out


def member(H, v):
    """Coefficients x with x*H = v for an echelon basis H, or None."""
    v = list(v)
    x = []
    for row, c in zip(H, pivots(H)):
        if v[c] % row[c]:
            return None
        q = v[c] // row[c]
        x.append(q)
        if q:
            v = [a - q * b for a, b in zip(v, row)]
    return x if not any(v) else None


def bareiss_det(M):
    A = [list(r) for r in M]
    n = len(A)
    sign, prev = 1, 1
    for k in range(n - 1):
        if A[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if A[i][k]), None)
            if swap is None:
                return 0
            A[k], A[swap] = A[swap], A[k]
            sign = -sign
        akk, rk = A[k][k], A[k]
        for i in range(k + 1, n):
            ri = A[i]
            aik = ri[k]
            ri[k + 1:] = [(akk * ri[j] - aik * rk[j]) // prev for j in range(k + 1, n)]
        prev = akk
    return sign * A[n - 1][n - 1] if n else 1


def independent_rows(rows, ncols):
    """(row indices, pivot columns) of a greedy basis, by Bareiss elimination.

    Dividing by the previous pivot is exact and keeps entries at the size
    of minors of the input.
    """
    work = [(i, list(r)) for i, r in enumerate(rows)]
    chosen, cols = [], []
    prev = 1
    for c in range(ncols):
        k = next((t for t, (_, r) in enumerate(work) if r[c]), None)
        if k is None:
            continue
        i, pr = work.pop(k)
        chosen.append(i)
        cols.append(c)
        work = [(j, [(pr[c] * a - r[c] * b) // prev for a, b in zip(r, pr)]) for j, r in work]
        work = [(j, r) for j, r in work if any(r)]
        prev = pr[c]
    return chosen, cols


def hnf_mod(rows, D):
    """Row HNF of a full-rank lattice in ℤ^n whose determinant divides D.

    Since D*e_j lies in the lattice, rows may be reduced modulo D; after the
    pivot g of a column is found, the rest of the lattice has determinant
    dividing D/g, so the modulus shrinks to D/g (Cohen, GTM 138, 2.4.8).
    """
    n = len(rows[0])
    R = abs(D)
    A = [[x % R for x in row] for row in rows]
    H = []
    for c in range(n):
        acc = [0] * n
        rest = []
        for row in A:
            b, a = row[c], acc[c]
            if b == 0:
                rest.append(row)
            elif a == 0:
                acc = row
            else:
                g, u, v = xgcd(a, b)
                acc, row = (
                    [(u * x + v * y) % R for x, y in zip(acc, row)],
                    [((a // g) * y - (b // g) * x) % R for x, y in zip(acc, row)],
                )
                rest.append(row)
        g, u, _ = xgcd(acc[c], R)
        w = [(u * x) % R for x in acc]
        w[c] = g
        H.append(w)
        R //= g
        A = [[x % R for x in row] for row in rest] if R > 1 else []
        if R == 1:
            H.extend([1 if j == k else 0 for j in range(n)] for k in range(c + 1, n))
            break
    for c in range(1, n):
        for i in range(c):
            q = H[i][c] // H[c][c]
            if q:
                H[i] = [a - q * b for a, b in zip(H[i], H[c])]
    return H


def _projected_hnf(rows, cols):
    """HNF of the rows restricted to ``cols``, where they have full rank."""
    proj = [[r[c] for c in cols] for r in rows]
    chosen, _ = independent_rows(proj, len(cols))
    D = bareiss_det([proj[i] for i in chosen])
    return hnf_mod(proj, D)


def lattice_hnf(rows, ncols):
    """Canonical row HNF of the lattice spanned by ``rows``, computed apart."""
    rows = [list(r) for r in rows if any(r)]
    if not rows:
        return []
    chosen, cols = independent_rows(rows, ncols)
    Hp = _projected_hnf(rows, cols)
    if len(cols) == ncols:
        return Hp
    # lift each projected row back into the row space: v = c * B with B the chosen rows
    B = [rows[i] for i in chosen]
    PB = [[Fraction(b[c]) for c in cols] for b in B]
    out = []
    for h in Hp:
        coef = _solve_left(PB, [Fraction(x) for x in h])
        v = [sum(cf * b[j] for cf, b in zip(coef, B)) for j in range(ncols)]
        if any(x.denominator != 1 for x in v):
            raise ArithmeticError("lifted HNF row is not integral")
        out.append([int(x) for x in v])
    return out


def _solve_left(M, v):
    """x with x*M = v for a nonsingular square matrix of Fractions."""
    n = len(M)
    A = [[M[j][i] for j in range(n)] + [v[i]] for i in range(n)]  # M^T | v
    for c in range(n):
        p = next(i for i in range(c, n) if A[i][c] != 0)
        A[c], A[p] = A[p], A[c]
        for i in range(n):
            if i != c and A[i][c] != 0:
                f = A[i][c] / A[c][c]
                A[i] = [a - f * b for a, b in zip(A[i], A[c])]
    return [A[i][n] / A[i][i] for i in range(n)]


def same_lattice(H, rows):
    """Problems unless the program's HNF H spans exactly the lattice of ``rows``."""
    out = hnf_problems(H)
    if out:
        return out
    if any(member(H, r) is None for r in rows):
        return ["a generating row is outside the span of the HNF"]
    cols = pivots(H)
    # both lattices lie in the row space, on which projecting to the pivot
    # columns of H is injective, so comparing projections decides equality
    proj = [[r[c] for c in cols] for r in rows]
    chosen, _ = independent_rows(proj, len(cols))
    if len(chosen) != len(cols):
        return ["HNF rank %d exceeds the rank %d of the generating rows" % (len(cols), len(chosen))]
    if _projected_hnf(rows, cols) != [[h[c] for c in cols] for h in H]:
        return ["HNF spans a larger lattice than the generating rows"]
    return []


def box_vectors(basis, box):
    """Every nonzero combination of ``basis`` with coefficients in [-box, box]."""
    columns = list(zip(*basis))
    for coeff in itertools.product(range(-box, box + 1), repeat=len(basis)):
        v = [sum(c * x for c, x in zip(coeff, col)) for col in columns]
        if any(v):
            yield v


def inf_norm(v):
    return max((abs(x) for x in v), default=0)


# ---------------------------------------------------------------------------
# polynomials over ℤ as dicts, lex order with the first variable largest


def p_add(f, g, scale=1):
    out = dict(f)
    for e, c in g.items():
        out[e] = out.get(e, 0) + scale * c
    return {e: c for e, c in out.items() if c}


def p_mul(f, g):
    out = {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def p_shift(f, c, e):
    return {tuple(a + b for a, b in zip(e, m)): c * v for m, v in f.items()}


def lead(f):
    e = max(f)
    return e, f[e]


def divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def strongly_reduces_to_zero(f, basis, limit=100_000):
    """Top-reduce f: lm(g) | lm(f) and lc(g) | lc(f).  Exact for strong bases."""
    heads = [lead(g) for g in basis]
    for _ in range(limit):
        if not f:
            return True
        e, c = lead(f)
        hit = next(
            (k for k, (m, lc) in enumerate(heads) if divides(m, e) and c % lc == 0), None
        )
        if hit is None:
            return False
        m, lc = heads[hit]
        f = p_add(f, p_shift(basis[hit], c // lc, tuple(a - b for a, b in zip(e, m))), -1)
    return False


def pair_polynomials(f, g):
    (mf, cf), (mg, cg) = lead(f), lead(g)
    gamma = tuple(max(a, b) for a, b in zip(mf, mg))
    sf = tuple(a - b for a, b in zip(gamma, mf))
    sg = tuple(a - b for a, b in zip(gamma, mg))
    lcm = abs(cf * cg) // math.gcd(cf, cg)
    s_poly = p_add(p_shift(f, lcm // cf, sf), p_shift(g, lcm // cg, sg), -1)
    _, u, v = xgcd(cf, cg)
    g_poly = p_add(p_shift(f, u, sf), p_shift(g, v, sg))
    return s_poly, g_poly


def _sympy_basis(polys, nvars):
    import sympy

    gens = sympy.symbols("x0:%d" % nvars)
    exprs = [sympy.Poly.from_dict(dict(f), *gens, domain="QQ").as_expr() for f in polys]
    basis = sympy.groebner(exprs, *gens, order="lex", domain="QQ")
    return [sympy.Poly(p, *gens, domain="QQ").as_dict() for p in basis.exprs]


def module_data(elements, nvars):
    """(variable index with no unit pure-power content, or None; free monomials; torsion count)."""
    heads = [lead(g) for g in elements]
    const = 0
    for m, c in heads:
        if not any(m):
            const = math.gcd(const, c)
    bounds = []
    for i in range(nvars):
        running = const
        bound = 0 if running == 1 else None
        pures = sorted((m[i], c) for m, c in heads if m[i] > 0 and not any(m[:i] + m[i + 1:]))
        for exp, c in pures:
            if bound is not None:
                break
            running = math.gcd(running, c)
            if running == 1:
                bound = exp
        if bound is None:
            return i, None, None
        bounds.append(bound)
    free, torsion = [], 0
    for alpha in itertools.product(*(range(b) for b in bounds)):
        content = 0
        for m, c in heads:
            if divides(m, alpha):
                content = math.gcd(content, c)
        if content == 0:
            free.append(list(alpha))
        elif content != 1:
            torsion += 1
    return None, sorted(free), torsion


def check_corpus_record(ideal, rec):
    """Problems with one completed ideal (first sighting, with its basis)."""
    nvars = ideal["nvars"]
    gens = [inputs.poly_from_json(g) for g in ideal["gens"]]
    basis = [inputs.poly_from_json(g) for g in rec["elements"]]
    out = []
    if not basis:
        return ["empty basis"]
    for k, g in enumerate(gens):
        if not strongly_reduces_to_zero(g, basis):
            out.append("generator %d does not reduce to zero" % k)
    for k, (g, rep) in enumerate(zip(basis, rec["reps"])):
        acc = {}
        for h, gen in zip(rep, gens):
            acc = p_add(acc, p_mul(inputs.poly_from_json(h), gen))
        if acc != g:
            out.append("basis element %d does not re-expand from its representation" % k)
    if len(rec["reps"]) != len(basis):
        out.append("representation count differs from basis size")
    for f, g in itertools.combinations(basis, 2):
        for pair in pair_polynomials(f, g):
            if not strongly_reduces_to_zero(pair, basis):
                out.append("an S- or G-pair does not reduce to zero")
    if _sympy_basis(gens, nvars) != _sympy_basis(basis, nvars):
        out.append("the reduced basis over Q differs from sympy's")
    infinite, free, torsion = module_data(basis, nvars)
    names = "xyz"
    if rec["kind"] == "infinite":
        if infinite is None or names[infinite] != rec["variable"]:
            out.append("claimed infinite in %s, but the basis disagrees" % rec["variable"])
    else:
        monic = all(lead(g)[1] == 1 for g in basis)
        if infinite is not None:
            out.append("claimed finite, but variable %s has no unit content" % names[infinite])
        elif rec["free"] != monic or rec["monic"] != monic:
            out.append("free/monic flags disagree with the basis")
        elif rec["N"] != len(free) + torsion:
            out.append("N = %d, expected %d" % (rec["N"], len(free) + torsion))
        elif sorted(rec["basis"]) != free:
            out.append("standard monomials differ")
    return out


# ---------------------------------------------------------------------------
# hash


class Convolver:
    """Ring products mod p of coefficient vectors by precomputed index tables."""

    def __init__(self, shape, p):
        self.spec = [("neg", r) for r in shape]
        self.p = p
        target, sign = ring.product_table(self.spec)
        self.target = np.array(target).ravel()
        self.sign = np.array(sign, dtype=np.int64)
        self.n = len(target)

    def vec(self, f):
        return np.array(ring.vector(ring.reduce(f, self.spec), self.spec), dtype=np.int64) % self.p

    def mul(self, a, b):
        out = np.zeros(self.n, dtype=np.int64)
        np.add.at(out, self.target, (self.sign * np.outer(a, b)).ravel())
        return out % self.p

    def digest(self, key, b):
        acc = np.zeros(self.n, dtype=np.int64)
        for a_i, b_i in zip(key, b):
            acc = (acc + self.mul(self.vec(a_i), self.vec(b_i))) % self.p
        return acc


def check_digest(conv, key, b, digest_terms):
    got = conv.vec(inputs.poly_from_json(digest_terms))
    want = conv.digest(key, b)
    if not np.array_equal(got, want):
        return ["digest differs from the negacyclic convolution mod %d" % conv.p]
    return []


# ---------------------------------------------------------------------------
# oracles


def _sum_spec(r):
    return [("sum", x) for x in r]


def _cyc_spec(r):
    return [("cyc", x) for x in r]


def check_extract(shape, gen, out):
    spec = _cyc_spec(shape)
    rows = ring.ideal_rows([gen], spec)
    H = out["hnf"]
    problems = same_lattice(H, rows)
    if problems:
        return problems
    for row in H:
        for axis in range(1, len(shape) + 1):
            if member(H, ring.shift(row, shape, axis)) is None:
                return ["lattice is not closed under the shift along axis %d" % axis]
    snf = out["snf"]
    if any(b % a for a, b in zip(snf, snf[1:])) or len(snf) != len(H):
        return ["SNF factors do not form a divisibility chain of length rank"]
    if len(H) == len(H[0]) and math.prod(snf) != math.prod(H[i][c] for i, c in enumerate(pivots(H))):
        return ["SNF factors do not multiply to the lattice determinant"]
    return []


def _element_vector(terms, spec):
    f = inputs.poly_from_json(terms)
    if ring.reduce(f, spec) != f:
        return None
    return ring.vector(f, spec)


def _lattice_answer(spec, gen, out):
    """(HNF of the ideal's lattice, answer vector), or (None, problem) when
    the answer is zero, not a reduced residue or outside the lattice."""
    H = lattice_hnf(ring.ideal_rows([gen], spec), len(ring.basis(spec)))
    v = _element_vector(out["element"], spec)
    if v is None or not any(v):
        return None, "answer is zero or not a reduced residue"
    if member(H, v) is None:
        return None, "answer is outside the ideal's lattice"
    return H, v


def check_spp(r, gen, box, out):
    H, v = _lattice_answer(_sum_spec(r), gen, out)
    if H is None:
        return [v]
    best = min(inf_norm(w) for w in box_vectors(H, box))
    if inf_norm(v) != best:
        return ["answer norm %d, exhaustive minimum over the box %d" % (inf_norm(v), best)]
    return []


def roots(r):
    return [
        tuple(p)
        for p in itertools.product(*([cmath.exp(2j * cmath.pi * k / x) for k in range(1, x)] for x in r))
    ]


def max_substitution(vec, spec, points):
    mons = ring.basis(spec)
    best = 0.0
    for pt in points:
        val = sum(c * math.prod(a ** k for a, k in zip(pt, e)) for e, c in zip(mons, vec) if c)
        best = max(best, abs(val))
    return best


def check_ssub(r, gen, box, out):
    spec = _sum_spec(r)
    H, v = _lattice_answer(spec, gen, out)
    if H is None:
        return [v]
    pts = roots(r)
    got = max_substitution(v, spec, pts)
    best = min(max_substitution(w, spec, pts) for w in box_vectors(H, box))
    if abs(got - best) > 1e-9 * max(1.0, best):
        return ["substitution value %.12g, exhaustive minimum over the box %.12g" % (got, best)]
    return []


def check_c2c(r, text, out):
    H, v = _lattice_answer(_cyc_spec([r]), _parse_univariate(text), out)
    if H is None:
        return [v]
    lam1 = min(inf_norm(w) for w in box_vectors(H, 6))
    if inf_norm(v) > 2 * lam1:
        return ["answer norm %d exceeds twice lambda_1 = %d" % (inf_norm(v), lam1)]
    return []


def _parse_univariate(text):
    """Univariate text in the CLI's grammar, such as '3*x^2 - x + 1'."""
    f = {}
    for term in text.replace(" ", "").replace("-", "+-").split("+"):
        if not term:
            continue
        coeff, _, mono = term.partition("x")
        if "x" not in term:
            f[(0,)] = f.get((0,), 0) + int(term)
            continue
        c = coeff.rstrip("*")
        c = -1 if c == "-" else (int(c) if c else 1)
        k = int(mono[1:]) if mono.startswith("^") else 1
        f[(k,)] = f.get((k,), 0) + c
    return inputs.clean(f)


def expansion_matrix(kind, r, k):
    """Normal-form matrix of the degree box: column j is the residue of monomial j."""
    spec = [(kind, x) for x in r]
    degree = [x if kind == "cyc" else x - 1 for x in r]
    monos = list(itertools.product(*(range(kk * d + 1) for kk, d in zip(k, degree))))
    return monos, spec, [ring.vector(ring.reduce({m: 1}, spec), spec) for m in monos]


def check_expansion(case, samples, out):
    monos, spec, cols = expansion_matrix(case["kind"], case["r"], case["k"])
    est = Fraction(out["num"], out["den"])
    row_sums = [sum(abs(col[i]) for col in cols) for i in range(len(cols[0]))]
    problems = []
    if est > out["theorem_bound"]:
        problems.append("estimate exceeds its theorem bound")
    if out["exhaustive"] != (3 ** len(monos) <= 250_000):
        problems.append("exhaustive flag is wrong for %d monomials" % len(monos))
    w = inputs.poly_from_json(out["witness"])
    w_vec = ring.vector(ring.reduce(w, spec), spec)
    if not w or Fraction(inf_norm(w_vec), inf_norm(w.values())) != est:
        problems.append("witness ratio differs from the estimate")
    if out["exhaustive"]:
        # over sign vectors the largest ratio is the largest row l1 sum
        if est != max(row_sums):
            problems.append("exhaustive estimate %s, induced norm %d" % (est, max(row_sums)))
        if out["samples"] != 3 ** len(monos) - 1:
            problems.append("exhaustive sweep did not visit every sign vector")
    elif est > max(row_sums) or not 0 < out["samples"] <= samples:
        problems.append("sampled estimate exceeds the induced norm or sample count is wrong")
    return problems


def check_incspp(out):
    spec = _sum_spec([3])
    H = lattice_hnf(ring.ideal_rows([{(1,): 1, (0,): -1}], spec), 2)
    v = _element_vector(out["element"], spec)
    if v is None or (any(v) and member(H, v) is None):
        return ["answer is not a member of the ideal"]
    return []


def check_minima(m, out):
    H = lattice_hnf(m["rows"], len(m["rows"][0]))
    problems = []
    lam, wit = out["lambdas"], out["witnesses"]
    if len(lam) != m["k"] or lam != sorted(lam):
        problems.append("wrong number of minima or not ascending")
    for value, w in zip(lam, wit):
        if member(H, w) is None or inf_norm(w) != value:
            problems.append("witness outside the lattice or with the wrong norm")
    if len(independent_rows(wit, len(H[0]))[0]) != len(wit):
        problems.append("witnesses are dependent")
    if any(value > inputs.MINIMA_BOUND for value in lam):
        problems.append(
            "lambda = %s, but %d independent input rows have norm %d"
            % (lam, len(m["rows"]), inputs.MINIMA_BOUND)
        )
    return problems


def check_oracle_record(inp, label, index, out):
    """``index`` counts operations of this family within a round."""
    if label == "extract":
        case = inp["extract"][index]
        return check_extract(case["shape"], inputs.poly_from_json(case["gen"]), out)
    if label in ("spp", "ssub"):
        case = inp[label][index]
        fn = check_spp if label == "spp" else check_ssub
        return fn(case["r"], inputs.poly_from_json(case["gen"]), case["box"], out)
    if label == "c2c":
        case = inp["c2c"][index]
        return check_c2c(case["r"], case["gen"], out)
    if label == "expansion":
        return check_expansion(inp["expansion"][index], inp["expansion_samples"], out)
    if label == "incspp":
        return check_incspp(out)
    return check_minima(inp["minima"], out)


# ---------------------------------------------------------------------------
# hash family over a small ring: collisions


def check_collision(key, p, d, alpha, beta):
    """alpha != beta, both in the domain, equal digests in ℤ_p[x]/<x^2+x+1>."""
    spec = _sum_spec([3])
    if alpha == beta:
        return ["collision halves are equal"]
    for f in alpha + beta:
        if any(abs(c) > d for c in f.values()) or ring.reduce(f, spec) != f:
            return ["collision entry outside the domain"]

    def dig(tup):
        acc = {}
        for a_i, b_i in zip(key, tup):
            acc = p_add(acc, ring.mul(a_i, b_i, spec))
        return ring.vector(ring.reduce(acc, spec, p), spec)

    if dig(alpha) != dig(beta):
        return ["collision halves have different digests"]
    return []


# ---------------------------------------------------------------------------
# cli


def key_polys(key_obj):
    return [{tuple(t["e"]): int(t["c"]) for t in a["terms"]} for a in key_obj["a"]]


def encode_bytes(data, d, m, n):
    """The documented container format: base-(2d+1) digits, centered, little-endian."""
    value = int.from_bytes(bytes(data), "little")
    digits = []
    while value:
        value, r = divmod(value, 2 * d + 1)
        digits.append(r - d)
    digits += [0] * (n * m - len(digits))
    return [{(j,): c for j, c in enumerate(digits[i * n:(i + 1) * n]) if c} for i in range(m)]


def check_cli_output(argv, obj, inp, keys):
    """Value checks for one CLI command; ``keys`` maps key file names to key objects."""
    cmd = tuple(argv[:2])
    poly = inputs.poly_from_json
    cyc = _cyc_spec(inp["shape"])
    if cmd == ("quotient", "info"):
        if obj["N"] != "15" or not obj["free"] or len(obj["basis"]) != 15:
            return ["quotient info of <x^3-1, y^5-1> is not free of rank 15"]
    elif cmd == ("quotient", "phi"):
        want = ring.vector(ring.reduce(poly(inp["phi_poly"]), cyc), cyc)
        if [int(x) for x in obj["vector"]] != want:
            return ["phi vector differs from index arithmetic"]
    elif cmd == ("lattice", "extract"):
        H = [[int(x) for x in row] for row in obj["hnf"]]
        return same_lattice(H, ring.ideal_rows([poly(inp["shift_gen"])], cyc))
    elif cmd == ("cyclic", "check"):
        if obj["cyclic"] is not True:
            return ["a lattice of shift rows was reported not cyclic"]
    elif cmd == ("cyclic", "shift"):
        tensor = inp["files"]["tensor.json"]
        want = ring.shift([int(x) for x in tensor["data"]], tensor["shape"], int(argv[-1]))
        if [int(x) for x in obj["data"]] != want:
            return ["shifted tensor differs from index arithmetic"]
    elif cmd == ("hardness", "expansion"):
        out = {
            "num": int(obj["estimate_num"]), "den": int(obj["estimate_den"]),
            "witness": inputs.poly_to_json(_parse_univariate(obj["witness"])),
            "theorem_bound": int(obj["theorem_bound"]), "samples": int(obj["samples"]),
            "exhaustive": obj["exhaustive"],
        }
        return check_expansion({"kind": "sum", "r": [3], "k": [2]}, 300, out)
    elif cmd == ("hardness", "spp"):
        out = {"element": inputs.poly_to_json(_parse_univariate(obj["element"]))}
        return check_spp([5], poly(inp["spp_gen"]), 2, out)
    elif cmd == ("hardness", "maxsub"):
        f = poly(inp["maxsub_poly"])
        spec = _sum_spec([3, 5])
        pts = roots([3, 5])
        want = max(abs(sum(c * math.prod(a ** k for a, k in zip(pt, e)) for e, c in f.items())) for pt in pts)
        got = float(obj["maxsub"])
        if abs(got - want) > 1e-9 * max(1.0, want):
            return ["maxsub %.12g, evaluation at the roots gives %.12g" % (got, want)]
        if int(obj["maxcoeff"]) != inf_norm(ring.reduce(f, spec).values()) or obj["N"] != "8":
            return ["maxcoeff or N differs from index arithmetic"]
    elif cmd == ("hardness", "algo1"):
        return check_incspp({"element": inputs.poly_to_json(_parse_univariate(obj["h"]))})
    elif cmd == ("hash", "keygen"):
        params = inp["files"]["digest_params.json"]
        a = key_polys(obj)
        if (obj["p"], obj["d"], obj["m"]) != (params["p"], params["d"], params["m"]) or len(a) != int(params["m"]):
            return ["key parameters differ from the parameter file"]
        if any(not 0 <= c < int(params["p"]) or e[0] >= 8 for f in a for e, c in f.items()):
            return ["key coefficients outside [0, p) or the standard monomials"]
    elif cmd == ("hash", "digest"):
        key = keys["digest_key.json"]
        conv = Convolver((8,), int(key["p"]))
        b = encode_bytes(inp["digest_bytes"], int(key["d"]), int(key["m"]), 8)
        want = conv.digest(key_polys(key), b)
        if [int(x) for x in obj["vector"]] != [int(x) for x in want]:
            return ["digest differs from the negacyclic convolution"]
    elif cmd == ("hash", "collide"):
        key = keys["collide_key.json"]
        alpha = [_parse_univariate(t) for t in obj["alpha"]]
        beta = [_parse_univariate(t) for t in obj["beta"]]
        problems = check_collision(key_polys(key), int(key["p"]), int(key["d"]), alpha, beta)
        if obj["valid"] is not True:
            problems.append("the program did not verify its own collision")
        return problems
    return []
