"""`LinExpr` arithmetic against plain dict arithmetic, term order included.

The reference keeps a linear form as a `Form`: a dict of nonzero terms in
insertion order plus a constant, where a coefficient is a Fraction or,
one level down, another `Form`. `+` and `-` keep the left operand's terms
in order, then the new ones of the right operand, and drop a term that
cancels; negation and scaling keep the order.
"""

import random
from fractions import Fraction as F

import pytest

from probterm import LinExpr


class Form:
    def __init__(self, terms, const):
        self.terms = terms
        self.const = const


def form(x):
    """The reference form of a LinExpr, or a Fraction as it is."""
    if isinstance(x, LinExpr):
        return Form({k: form(v) for k, v in x.coeffs.items()}, form(x.constant))
    return x


def shape(x):
    """A LinExpr or a Form as nested lists of its terms in order, then its
    constant; a Fraction as it is."""
    if isinstance(x, LinExpr):
        return [[(k, shape(v)) for k, v in x.coeffs.items()], shape(x.constant)]
    if isinstance(x, Form):
        return [[(k, shape(v)) for k, v in x.terms.items()], shape(x.const)]
    return x


def is_zero(x):
    return not x.terms and is_zero(x.const) if isinstance(x, Form) else x == 0


def add(x, y):
    if not isinstance(x, Form) and not isinstance(y, Form):
        return x + y
    if not isinstance(y, Form):
        return Form(dict(x.terms), add(x.const, y))
    if not isinstance(x, Form):
        return Form(dict(y.terms), add(x, y.const))
    terms = dict(x.terms)
    for k, v in y.terms.items():
        s = add(terms[k], v) if k in terms else v
        if is_zero(s):
            del terms[k]
        else:
            terms[k] = s
    return Form(terms, add(x.const, y.const))


def neg(x):
    return Form({k: neg(v) for k, v in x.terms.items()}, neg(x.const)) \
        if isinstance(x, Form) else -x


def sub(x, y):
    return add(x, neg(y))


def mul(x, f):
    """`x` times `f`: a Fraction times a Fraction or a Form, or a Form
    with Fraction coefficients times a Form, term by term."""
    if not isinstance(x, Form):
        return mul(f, x) if isinstance(f, Form) else x * f
    terms = {k: mul(v, f) for k, v in x.terms.items()}
    return Form({k: v for k, v in terms.items() if not is_zero(v)}, mul(x.const, f))


def substitute(x, index, replacement):
    if index not in x.terms:
        return x
    rest = Form({k: v for k, v in x.terms.items() if k != index}, x.const)
    return add(rest, mul(replacement, x.terms[index]))


def fraction(rng):
    return F(rng.randint(-2, 2), rng.randint(1, 2))


def draw(rng, coefficient, nvars=4):
    """A LinExpr over a random subset of `nvars` variables, in random
    order, its coefficients and constant drawn by `coefficient`."""
    return LinExpr({i: coefficient(rng) for i in rng.sample(range(nvars), rng.randint(0, nvars))},
                   coefficient(rng))


def check_binary(a, b):
    for result, expected in ((a + b, add(form(a), form(b))),
                             (a - b, sub(form(a), form(b)))):
        assert shape(result) == shape(expected)
        assert result.coeffs is not a.coeffs and result.coeffs is not b.coeffs


def check_unary(a, replacement, rng):
    results = [(-a, neg(form(a)))]
    for f in (1, -1, F(1, 2)):
        results.append((a.scale(f), mul(form(a), F(f))))
    delta = rng.randint(-2, 2)
    results.append((a.shift(delta), add(form(a), F(delta))))
    if a.coeffs:
        index = rng.choice(sorted(a.coeffs))
        results.append((a.substitute(index, replacement),
                        substitute(form(a), index, form(replacement))))
    for result, expected in results:
        assert shape(result) == shape(expected)
        assert result.coeffs is not a.coeffs
    # substituting a variable that does not occur changes nothing
    assert shape(a.substitute(9, replacement)) == shape(a)


def test_arithmetic_matches_dict_arithmetic():
    rng = random.Random(24)
    for trial in range(400):
        a, b = draw(rng, fraction), draw(rng, fraction)
        for left, right in ((a, b), (b, a), (a, a), (a, -a), (a, a.scale(2))):
            check_binary(left, right)
        check_unary(a, b, rng)


def over_columns(rng):
    """A LinExpr over the LP columns 0, 1 and 2, as a template coefficient."""
    return draw(rng, fraction, nvars=3)


def test_template_arithmetic_matches_dict_arithmetic():
    # coefficients and constants that are LinExprs over LP columns, as in a
    # synthesis template; a template and a concrete expression add and
    # subtract, and a concrete expression substitutes into a template
    rng = random.Random(25)
    for trial in range(300):
        a, b = draw(rng, over_columns), draw(rng, over_columns)
        concrete = draw(rng, fraction)
        for left, right in ((a, b), (b, a), (a, a), (a, -a), (a, a.scale(2)),
                            (a, concrete), (concrete, a)):
            check_binary(left, right)
        check_unary(a, concrete, rng)


def test_var_is_the_general_constructor_at_coefficient_one():
    # the default coefficient skips coercion; every other one, an explicit
    # 1 included, goes through it, and a bool is still refused
    for index in (0, 3, -1):
        e = LinExpr.var(index)
        assert (e.coeffs, e.constant) == (LinExpr({index: 1}).coeffs, F(0))
        assert all(type(v) is F for v in (*e.coeffs.values(), e.constant))
        assert e == LinExpr.var(index, 1) == LinExpr.var(index, "1")
    assert LinExpr.var(2, F(-3, 2)).coeffs == {2: F(-3, 2)}
    assert LinExpr.var(2, 0) == LinExpr.const(0)
    with pytest.raises(TypeError):
        LinExpr.var(2, True)


def test_scale_by_a_template_coefficient():
    # a concrete expression times a LinExpr over LP columns is that factor
    # scaled by each coefficient and by the constant, as `Fraction *
    # LinExpr` gives it, and stores no zero coefficient
    rng = random.Random(27)
    for trial in range(400):
        e = draw(rng, fraction)
        f = over_columns(rng) if trial % 10 else LinExpr.const(0)
        scaled = e.scale(f)
        termwise = LinExpr({i: f.scale(c) for i, c in e.coeffs.items()}, f.scale(e.constant))
        by_fraction = LinExpr({i: c * f for i, c in e.coeffs.items()}, e.constant * f)
        assert shape(scaled) == shape(termwise) == shape(by_fraction), trial
        assert all(scaled.coeffs.values()), trial
        assert shape(scaled) == shape(mul(form(e), form(f))), trial
        assert scaled.coeffs is not e.coeffs
