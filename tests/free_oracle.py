"""Independent oracle for PBW normal forms.

Works with words (tuples of generator indices, unsorted) with a coefficient
function on the far left, and reduces products letter by letter using only
the defining relations

    X_j X_i = X_i X_j + [X_j, X_i]        (j > i)
    X_i * g = g * X_i + X_i(g)

applied in a different order than the rewriting engine in the package
(right multiplication instead of left, anchor applied directly from the
anchor matrix).  Output is a {exponent: CoeffFn} dict comparable with
UEAElement.terms.

line_rank2_algebra is a test algebra whose bracket table is not constant.
"""

from convbialg.coeffs import Chart, CoeffFn
from convbialg.lie_rinehart import LieRinehart


def line_rank2_algebra():
    """Rank 2 on the line: rho(X1) = d/dt, rho(X2) = 0, [X1, X2] = t * X2."""
    chart = Chart.line("M")
    zero, one, t = CoeffFn.const(chart, 0), CoeffFn.const(chart, 1), CoeffFn.var(chart)
    table = [[[zero, zero], [zero, t]], [[zero, -t], [zero, zero]]]
    return LieRinehart(chart, 2, [[one], [zero]], table)


def _anchor_deriv(A, i, g):
    """X_i(g) straight from the anchor matrix."""
    out = CoeffFn.const(A.chart, 0)
    for m in range(A.chart.dim):
        out = out + A.anchor[i][m] * g.derive(m)
    return out


def _bracket_fn(A, j, i):
    """[X_j, X_i] as a list of CoeffFn coordinates."""
    return A.bracket_table[j][i]


def _add_word(acc, word, f):
    if f.is_zero:
        return
    acc[word] = acc[word] + f if word in acc else f


def push_coeff_left(A, word, g):
    """X_word * g as {word': coeff} with coefficients on the left."""
    if not word:
        return {(): g}
    head, last = word[:-1], word[-1]
    acc = {}
    # X_head X_last g = X_head (g X_last + X_last(g))
    for w, f in push_coeff_left(A, head, g).items():
        _add_word(acc, w + (last,), f)
    dg = _anchor_deriv(A, last, g)
    if not dg.is_zero:
        for w, f in push_coeff_left(A, head, dg).items():
            _add_word(acc, w, f)
    return acc


def sort_words(A, terms):
    """Rewrite until every word is weakly increasing; returns {word: coeff}."""
    pending = dict(terms)
    done = {}
    while pending:
        word, f = pending.popitem()
        k = next((i for i in range(len(word) - 1) if word[i] > word[i + 1]), None)
        if k is None:
            _add_word(done, word, f)
            continue
        j, i = word[k], word[k + 1]
        swapped = word[:k] + (i, j) + word[k + 2 :]
        _add_word(pending, swapped, f)
        for m, c in enumerate(_bracket_fn(A, j, i)):
            if c.is_zero:
                continue
            # coefficient c sits at position k; push it to the far left,
            # keeping the carried coefficient f on the outside
            for w, g in push_coeff_left(A, word[:k], c).items():
                _add_word(pending, w + (m,) + word[k + 2 :], f * g)
    return done


def _expand(exp):
    word = []
    for i, k in enumerate(exp):
        word.extend([i] * k)
    return tuple(word)


def _collect(A, words):
    out = {}
    rank = A.rank
    for word, f in words.items():
        exp = [0] * rank
        for i in word:
            exp[i] += 1
        key = tuple(exp)
        out[key] = out[key] + f if key in out else f
    return {e: f for e, f in out.items() if not f.is_zero}


def oracle_mul(u, v):
    """Free-algebra product of two normal forms, renormalized; compares with
    uea_mul(u, v).terms."""
    A = u.parent
    raw = {}
    for e1, f1 in u.terms.items():
        w1 = _expand(e1)
        for e2, f2 in v.terms.items():
            w2 = _expand(e2)
            for w, g in push_coeff_left(A, w1, f2).items():
                _add_word(raw, w + w2, f1 * g)
    return _collect(A, sort_words(A, raw))
