"""Run-time tracing for the traced run (``--trace 1``).

The tracer wraps the package's functions from outside the package, inside
one child interpreter, and undoes nothing: the child exits after its pass.
Every wrapped call is timed on a stack, so a function's self time is its
duration minus the time its wrapped callees took.  Calls that are frequent
enough to matter for memory (the ``Poly``, ``RatFunc`` and
``GradedScalar`` arithmetic) are kept as per-name aggregates only; every
other wrapped call is also kept as a span ``(name, start, end, parent,
job)`` and the spans are written out when the pass ends.

Field operations are called tens of millions of times, so at that boundary
the tracer records counts only, and their time falls into the self time of
their caller, nearly always a ``Poly`` method (``polys.self_s``).  An
extension-field op calls prime-field ops; both are counted.
"""

from __future__ import annotations

import json
import time
import types
from collections import defaultdict

LAYERS = ("fields", "polys", "scalars", "carlitz", "useries", "forms", "vmf",
          "specialize", "verify", "serialize", "context", "cli")

# Methods wrapped with counts and self time; module-level public functions
# of every layer are wrapped too.  Names left out are either trivial
# accessors or constructors whose time belongs to the caller.
METHODS = {
    "polys": {
        "Poly": ("__add__", "__neg__", "__mul__", "scale", "__pow__", "monic",
                 "exact_div", "subs_theta_power", "subs_t_poly", "subs_t_elt",
                 "eval_theta_elt", "t_order_at", "theta_order_at",
                 "hyperderiv_t"),
        "RatFunc": ("__init__", "__add__", "__neg__", "__mul__", "inv",
                    "__truediv__", "__pow__", "tau", "hyperderiv_t"),
    },
    "scalars": {
        "GradedScalar": ("__add__", "__neg__", "__mul__", "mul_rat", "inv",
                         "__truediv__", "__pow__", "tau", "untau",
                         "hyperderiv_t"),
    },
    "useries": {
        "USeries": ("__add__", "__neg__", "__mul__", "scale", "shift",
                    "truncate", "inverse", "__truediv__", "__pow__",
                    "eq_to_prec", "first_difference", "map_scalars", "tau",
                    "untau", "dt", "substitute", "eval_theta_power",
                    "eval_root"),
    },
    "context": {
        "Context": ("memo", "monics", "monics_below", "poly_space", "D",
                    "carlitz_theta_power", "carlitz_coeffs", "is_irreducible"),
    },
    "carlitz": {"LatticeExp": ("alpha", "alpha_scalar")},
    "forms": {"ClassicalForm": ("__mul__", "__add__", "__neg__", "__pow__",
                                "scale")},
    "vmf": {"VMForm": ("__add__", "__neg__", "scale", "mul_classical",
                       "mul_series", "truncate", "eq_to_prec",
                       "first_difference", "is_regular_valued")},
    "specialize": {"RootContext": ("conjugates",)},
}

# Aggregates only, no spans: these run millions of times per pass.
NO_SPANS = ("polys.Poly.", "polys.RatFunc.", "scalars.GradedScalar.")

FIELD_OPS = ("add", "sub", "neg", "mul", "inv", "pow", "frobenius")

# Private functions wrapped because a per-layer metric counts them.
PRIVATE = {"polys": ("_bivar_gcd",)}


class Tracer:
    """Counts, self and inclusive times per wrapped name, plus spans."""

    def __init__(self):
        self.on = False
        self.job = -1
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.incl_s = defaultdict(float)
        self.stats = defaultdict(float)
        self.spans = []
        # frame: [child seconds, span index or -1, name]
        self.stack = [[0.0, -1, None]]
        self.missing = []

    # -- wrappers ---------------------------------------------------------

    def timed(self, name, fn, after=None, count=True):
        stack, spans = self.stack, self.spans
        calls, self_s, incl_s = self.calls, self.self_s, self.incl_s
        span = not name.startswith(NO_SPANS)
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kw):
            if not tracer.on:
                return fn(*args, **kw)
            if count:
                calls[name] += 1
            parent = stack[-1]
            idx = -1
            if span:
                idx = len(spans)
                spans.append([name, 0.0, 0.0, _span_of(stack), tracer.job])
            frame = [0.0, idx, name]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kw)
            finally:
                t1 = clock()
                stack.pop()
                d = t1 - t0
                self_s[name] += d - frame[0]
                incl_s[name] += d
                parent[0] += d
                if idx >= 0:
                    spans[idx][1] = t0
                    spans[idx][2] = t1
            if after is not None:
                after(args, result, parent[2])
            return result

        return wrapper

    def counted(self, name, fn):
        calls, tracer = self.calls, self

        def wrapper(*args):
            if tracer.on:
                calls[name] += 1
            return fn(*args)

        return wrapper

    # -- installation -------------------------------------------------------

    def install(self, pkg):
        """Wrap the layers of the imported package ``pkg``."""
        mods = {layer: getattr(pkg, layer) for layer in LAYERS}
        replace = {}
        special = self._special_hooks()
        suites = {fn: f"verify.suite.{key}"
                  for key, fn in mods["verify"].SUITES.items()}
        for layer, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if not isinstance(obj, types.FunctionType) or obj in replace:
                    continue
                if obj.__module__ != mod.__name__:
                    continue
                if attr.startswith("_") and attr not in PRIVATE.get(layer, ()):
                    continue
                name = suites.get(obj, f"{layer}.{attr}")
                replace[obj] = self.timed(name, obj, after=special.get(name))
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name, None)
                for meth in methods:
                    fn = getattr(cls, meth, None) if cls is not None else None
                    if not isinstance(fn, types.FunctionType):
                        self.missing.append(f"{layer}.{cls_name}.{meth}")
                        continue
                    name = f"{layer}.{cls_name}.{meth}"
                    if name == "context.Context.memo":
                        wrapped = self._memo(fn)
                    elif name == "polys.RatFunc.__init__":
                        wrapped = self._ratfunc_init(fn, mods["polys"].Poly)
                    else:
                        wrapped = self.timed(name, fn, after=special.get(name))
                    setattr(cls, meth, wrapped)
            for attr in PRIVATE.get(layer, ()):
                if not hasattr(mod, attr):
                    self.missing.append(f"{layer}.{attr}")
        for cls_name in ("PrimeField", "PolyExtField"):
            cls = getattr(mods["fields"], cls_name)
            for op in FIELD_OPS:
                fn = getattr(cls, op, None)
                if isinstance(fn, types.FunctionType):
                    setattr(cls, op, self.counted(f"fields.{op}", fn))
                else:
                    self.missing.append(f"fields.{cls_name}.{op}")
        # rebind every reference the package holds to a wrapped function
        for mod in list(mods.values()) + [pkg]:
            for attr, obj in list(vars(mod).items()):
                if isinstance(obj, types.FunctionType) and obj in replace:
                    setattr(mod, attr, replace[obj])
        table = mods["verify"].SUITES
        for key, fn in list(table.items()):
            table[key] = replace.get(fn, fn)

    def _special_hooks(self):
        stats = self.stats

        def gcd_after(args, result, parent):
            if result.is_one():
                stats["gcd_trivial"] += 1

        def scale_arg_after(args, result, parent):
            if result.prec is not None:
                stats["scale_arg_out_prec"] += result.prec

        def substitute_after(args, result, parent):
            if parent == "useries.scale_arg" and result.prec is not None:
                stats["scale_arg_sub_prec"] += result.prec

        def theta_deg_after(args, result, parent):
            d = max((k[0] for k in result.c), default=0)
            if d > stats["max_theta_deg"]:
                stats["max_theta_deg"] = d

        def dumps_after(args, result, parent):
            stats["serialize_bytes"] += len(result)

        return {
            "polys.poly_gcd": gcd_after,
            "useries.scale_arg": scale_arg_after,
            "useries.USeries.substitute": substitute_after,
            "polys.Poly.__mul__": theta_deg_after,
            "polys.Poly.subs_theta_power": theta_deg_after,
            "serialize.canonical_dumps": dumps_after,
        }

    def _memo(self, fn):
        """Context.memo: count hits, and charge a build closure's own time
        to the function that defined it (``vmf.eis1`` for ``eis1``'s build),
        not to ``context``."""
        stats, tracer = self.stats, self
        inner = self.timed("context.Context.memo", fn)

        def memo(ctx, key, build):
            if not tracer.on:
                return fn(ctx, key, build)
            stats["memo_calls"] += 1
            if key in ctx.cache:
                stats["memo_hits"] += 1
                return inner(ctx, key, build)
            owner = build.__qualname__.split(".<locals>")[0]
            layer = build.__module__.rsplit(".", 1)[-1]
            return inner(ctx, key, self.timed(f"{layer}.{owner}", build,
                                              count=False))

        return memo

    def _ratfunc_init(self, fn, poly_cls):
        """RatFunc.__init__: count constructions that normalize by a gcd."""
        stats, tracer = self.stats, self
        is_one, is_zero = poly_cls.is_one, poly_cls.is_zero
        inner = self.timed("polys.RatFunc.__init__", fn)

        def init(obj, num, den=None, reduce=True):
            if (tracer.on and reduce and den is not None and not is_one(den)
                    and not is_zero(num)):
                stats["normalize_calls"] += 1
            inner(obj, num, den, reduce)

        return init

    # -- results ------------------------------------------------------------

    def metrics(self, suites):
        """Per-layer metrics of the pass, by the names in BENCHMARK.json."""
        c, s, i, st = self.calls, self.self_s, self.incl_s, self.stats

        def layer_self(layer):
            return sum((v for k, v in s.items() if k.startswith(layer + ".")),
                       0.0)

        def ratio(a, b):
            return a / b if b else 0.0

        m = {
            "useries.scale_arg.s": i["useries.scale_arg"],
            "useries.scale_arg.kept_ratio": ratio(st["scale_arg_out_prec"],
                                                  st["scale_arg_sub_prec"]),
            "useries.substitute.calls": c["useries.USeries.substitute"],
            "useries.substitute.s": s["useries.USeries.substitute"],
            "useries.mul.calls": c["useries.USeries.__mul__"],
            "useries.mul.self_s": s["useries.USeries.__mul__"],
            "useries.inverse.calls": c["useries.USeries.inverse"],
            "useries.inverse.self_s": s["useries.USeries.inverse"],
            "useries.trace_div.s": s["useries.trace_div"],
            "useries.u_scale.s": s["useries.u_scale"],
            "polys.add.calls": c["polys.Poly.__add__"],
            "polys.mul.calls": c["polys.Poly.__mul__"],
            "polys.exact_div.calls": c["polys.Poly.exact_div"],
            "polys.gcd.calls": c["polys.poly_gcd"],
            "polys.gcd.bivariate_calls": c["polys._bivar_gcd"],
            "polys.gcd.trivial_ratio": ratio(st["gcd_trivial"],
                                             c["polys.poly_gcd"]),
            "polys.gcd.s": i["polys.poly_gcd"],
            "polys.ratfunc.normalize_calls": int(st["normalize_calls"]),
            "polys.max_theta_deg": int(st["max_theta_deg"]),
            "fields.mul.calls": c["fields.mul"],
            "fields.add.calls": c["fields.add"] + c["fields.sub"],
            "fields.inv.calls": c["fields.inv"],
            "scalars.mul.calls": c["scalars.GradedScalar.__mul__"],
            "scalars.add.calls": c["scalars.GradedScalar.__add__"],
            "carlitz.goss_poly.calls": c["carlitz.goss_poly"],
            "carlitz.s": layer_self("carlitz"),
            "forms.s": layer_self("forms"),
            "specialize.s": layer_self("specialize"),
            "vmf.eis1.s": s["vmf.eis1"],
            "vmf.hecke.s": s["vmf.hecke"],
            "vmf.legendre_fstar.s": s["vmf.legendre_fstar"],
            "cli.verify.s": i["cli.cmd_verify"],
            "context.memo.hit_ratio": ratio(st["memo_hits"],
                                            st["memo_calls"]),
            "serialize.dump_s": i["serialize.canonical_dumps"]
                                + i["serialize.vmform_to_json"],
            "serialize.bytes": int(st["serialize_bytes"]),
        }
        for layer in ("useries", "polys", "scalars", "vmf", "verify", "cli",
                      "context"):
            m[f"{layer}.self_s"] = layer_self(layer)
        for suite in suites:
            m[f"verify.suite.{suite}.s"] = i[f"verify.suite.{suite}"]
        return m

    def write_spans(self, path, jobs):
        names = sorted({sp[0] for sp in self.spans})
        index = {n: k for k, n in enumerate(names)}
        with open(path, "w") as fh:
            json.dump({"names": names, "jobs": jobs,
                       "spans": [[index[n], a, b, p, j]
                                 for n, a, b, p, j in self.spans]}, fh)


def _span_of(stack):
    """Index of the innermost open span (-1 at the top)."""
    for frame in reversed(stack):
        if frame[1] >= 0:
            return frame[1]
    return -1
