"""Canonical JSON for every artifact type.

Numbers never appear as floats: field elements are little-endian base-p
digit strings (comma-separated when p > 10), polynomials are sorted
(theta-exp, t-exp, digits) triples, graded scalars sorted (pi-exp, om-exp,
num, den) records.  Files carry a schema tag and the field so readers can
refuse mismatches.
"""

from __future__ import annotations

import json

from .context import Context
from .forms import ClassicalForm
from .polys import Poly, RatFunc, poly_gcd
from .scalars import GradedScalar
from .specialize import RootContext, SpecializedForm
from .useries import USeries
from .vmf import VMForm

SCHEMA = "carlitz-vmf/1"


def digits_str(field, x) -> str:
    # a digit below p > 10 may take two decimal places, so separate them
    return ("," if field.p > 10 else "").join(str(d) for d in field.digits(x))


def elt_from_digits(field, s: str):
    # no separator: one digit per character, unless elements have one digit
    ds = s.split(",") if "," in s or field.e == 1 else s
    digits = [int(d) for d in ds]
    # only the writer's own form: no sign, space, "_" or leading zero
    if any(str(n) != d for n, d in zip(digits, ds)):
        raise ValueError(f"{s!r} is not a canonical digit string")
    return field.from_digits(digits)


def poly_to_json(p: Poly):
    f = p.ring.field
    return [[i, j, digits_str(f, c)] for i, j, c in p.terms()]


def poly_from_json(ring, data) -> Poly:
    """The polynomial of a triple list; refuses a negative exponent, a
    stored zero coefficient or a monomial listed twice, which no writer
    produces."""
    f = ring.field
    c = {}
    for i, j, s in data:
        v = elt_from_digits(f, s)
        if i < 0 or j < 0:
            raise ValueError(f"negative exponent in theta^{i} t^{j}")
        if v == f.zero:
            raise ValueError(f"zero coefficient stored at theta^{i} t^{j}")
        if (i, j) in c:
            raise ValueError(f"monomial theta^{i} t^{j} listed twice")
        c[(i, j)] = v
    return Poly(ring, c)


def scalar_to_json(s: GradedScalar):
    return [[a, b, poly_to_json(c.num), poly_to_json(c.den)]
            for (a, b), c in sorted(s.terms.items())]


def scalar_from_json(ring, data) -> GradedScalar:
    """The scalar of a record list.  Only canonical fractions load: a
    nonzero numerator, a monic denominator and no common factor; a grade
    stored twice is refused too."""
    terms = {}
    for a, b, num, den in data:
        n, d = poly_from_json(ring, num), poly_from_json(ring, den)
        if n.is_zero():
            raise ValueError(f"zero numerator stored under grade ({a}, {b})")
        if d.is_zero():
            raise ValueError(f"zero denominator under grade ({a}, {b})")
        if d.lead()[1] != ring.field.one:
            raise ValueError(f"denominator {d} is not monic")
        if not d.is_one() and not poly_gcd(n, d).is_one():
            raise ValueError(f"fraction ({n})/({d}) is not in lowest terms")
        if (a, b) in terms:
            raise ValueError(f"grade ({a}, {b}) stored twice")
        terms[(a, b)] = RatFunc(n, d, reduce=False)
    return GradedScalar(ring, terms)


def series_to_json(f: USeries):
    return {
        "prec": f.prec,
        "coeffs": [[n, scalar_to_json(c)] for n, c in sorted(f.c.items())],
    }


def series_from_json(ctx: Context, data) -> USeries:
    """The series of a coefficient list; refuses an exponent at or past
    the precision, an exponent listed twice or a stored zero, which no
    writer produces."""
    prec = data["prec"]
    c = {}
    for n, s in data["coeffs"]:
        if prec is not None and n >= prec:
            raise ValueError(f"coefficient u^{n} stored at or past O(u^{prec})")
        if n in c:
            raise ValueError(f"exponent u^{n} listed twice")
        if not s:
            raise ValueError(f"zero coefficient stored at u^{n}")
        c[n] = scalar_from_json(ctx.ring, s)
    return USeries(ctx, c, prec)


def classical_to_json(f: ClassicalForm):
    return {
        "weight": f.weight,
        "type": f.type_,
        "series": series_to_json(f.series),
        "gh": None if f.gh is None else
            [[a, b, scalar_to_json(c)] for (a, b), c in sorted(f.gh.items())],
    }


def classical_from_json(ctx: Context, data) -> ClassicalForm:
    gh = None
    if data.get("gh") is not None:
        gh = {(a, b): scalar_from_json(ctx.ring, c) for a, b, c in data["gh"]}
    return ClassicalForm(ctx, data["weight"], data["type"],
                         series_from_json(ctx, data["series"]), gh)


def vmform_to_json(H: VMForm):
    return {
        "q": H.ctx.q,
        "weight": H.k,
        "type": H.m,
        "regular": H.regular,
        "trunc": H.h1.prec,
        "h1": series_to_json(H.h1),
        "h3": series_to_json(H.h3),
        "lambda": None if H.lam is None else scalar_to_json(H.lam),
    }


def vmform_from_json(ctx: Context, data) -> VMForm:
    lam = None
    if data.get("lambda") is not None:
        lam = scalar_from_json(ctx.ring, data["lambda"])
    return VMForm(ctx, data["weight"], data["type"],
                  series_from_json(ctx, data["h1"]),
                  series_from_json(ctx, data["h3"]),
                  regular=data["regular"], lam=lam)


def specialized_to_json(F):
    rctx = F.rctx
    base = rctx.ctx.base_field
    return {
        "q": rctx.ctx.q,
        "prime": [digits_str(base, c) for c in rctx.p],
        "degree": rctx.degree,
        "power": F.level_power,
        "frobenius_power": rctx.frobenius_power,
        "character_exponent": F.character_exponent,
        "weight": F.weight,
        "type": F.type_,
        "series": series_to_json(F.series),
    }


def specialized_from_json(ctx: Context, data):
    base = ctx.base_field
    p = tuple(elt_from_digits(base, s) for s in data["prime"])
    rctx = RootContext(ctx, p, data["frobenius_power"])
    series = series_from_json(rctx.spec_ctx, data["series"])
    return SpecializedForm(rctx, data["weight"], data["type"], series,
                           level_power=data["power"],
                           character_exponent=data["character_exponent"])


def envelope(ctx: Context, kind: str, trunc, payload) -> dict:
    return {
        "schema": SCHEMA,
        "field": {"p": ctx.p, "e": ctx.e},
        "trunc": trunc,
        "kind": kind,
        "payload": payload,
    }


def canonical_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def load_envelope(ctx: Context, text: str):
    data = json.loads(text)
    if data.get("schema") != SCHEMA:
        raise ValueError(f"unknown schema {data.get('schema')!r}")
    f = data["field"]
    if (f["p"], f["e"]) != (ctx.p, ctx.e):
        raise ValueError("field mismatch")
    kind = data["kind"]
    payload = data["payload"]
    readers = {
        "vmform": vmform_from_json,
        "classical": classical_from_json,
        "series": series_from_json,
        "specialized": specialized_from_json,
    }
    if kind not in readers:
        raise ValueError(f"unknown kind {kind!r}")
    return readers[kind](ctx, payload)
