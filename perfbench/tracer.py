"""Per-layer spans taken from outside the program.

The tracer wraps public functions and methods of ``motionfields`` in place.
A function is replaced in every module namespace that holds it, so a call
through ``verifier.pi_matrix`` is seen as well as one through
``fourier.pi_matrix``.  Methods are wrapped on every class that defines them.

Every call is a span, including a call nested in a span of the same name
(``ProductGroup.irrep_matrix`` evaluating its circle factors).  A span
records its duration and the part of it covered by child spans; self time
is the difference.  Statistics are aggregated in memory per span name.
"""

import functools
import importlib
import inspect
import pkgutil
import time


class Stat:
    __slots__ = ("calls", "total_s", "self_s", "keys", "extra")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.keys = set()
        self.extra = {}

    def add(self, name, value):
        self.extra[name] = self.extra.get(name, 0) + value

    def raise_to(self, name, value):
        self.extra[name] = max(self.extra.get(name, 0), value)

    def to_dict(self):
        out = {
            "calls": self.calls,
            "total_s": self.total_s,
            "self_s": self.self_s,
            "distinct": len(self.keys),
        }
        out.update(self.extra)
        return out


class Tracer:
    def __init__(self):
        self.stack = []  # [name, seconds covered by children] per open span
        self.stats = {}
        self.wrapped = {}  # id of original function -> (original, wrapper)

    def reset(self):
        for st in self.stats.values():
            st.__init__()

    def wrap(self, name, fn, key=None, on_exit=None):
        """A wrapper timing ``fn`` as span ``name``.

        ``key(args)`` names the mathematical identity of a call, for the
        distinct-key count; ``on_exit(tracer, stat, args, result, seconds)``
        records layer-specific figures.  ``args`` is the bound argument map.
        """
        if id(fn) in self.wrapped:
            return self.wrapped[id(fn)][1]
        st = self.stats.setdefault(name, Stat())
        sig = inspect.signature(fn) if (key or on_exit) else None
        stack = self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dur
                st.calls += 1
                st.total_s += dur
                st.self_s += dur - frame[1]
            if sig is not None:
                bound = sig.bind(*args, **kwargs).arguments
                if key:
                    st.keys.add(key(bound))
                if on_exit:
                    on_exit(self, st, bound, result, dur)
            return result

        wrapper.__perfbench_span__ = name
        self.wrapped[id(fn)] = (fn, wrapper)
        return wrapper

    def parent(self):
        """Name of the innermost open span, or None."""
        return self.stack[-1][0] if self.stack else None

    def snapshot(self):
        return {name: st.to_dict() for name, st in self.stats.items()}


def package_modules():
    """Every module of the ``motionfields`` package, imported."""
    import motionfields

    mods = [motionfields]
    for info in pkgutil.iter_modules(motionfields.__path__):
        mods.append(importlib.import_module(f"motionfields.{info.name}"))
    return mods


def _replace_everywhere(modules, original, wrapper):
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapper)


def _subclasses(base):
    out, todo = [], [base]
    while todo:
        cls = todo.pop()
        out.append(cls)
        todo.extend(cls.__subclasses__())
    return out


# -- keys and layer figures --------------------------------------------------


def _intertwiner_key(a):
    return (a["K"].name, a["lam"], a["stab"].structure, a["mu"])


def _psi_key(a):
    b = a["self"]
    return (b.pair_name, b.mu, b.stab.structure, b.lambda_max, a["rule"].order)


def _irrep_table_key(a):
    return (a["self"].name, a["label"], a["rule"].order)


def _psi_bytes(tracer, st, args, result, dur):
    st.raise_to("psi_bytes_max", int(result.nbytes))


def _pi_matrix_figures(tracer, st, args, result, dur):
    st.raise_to("max_N", int(result.size))
    st.add(f"lam{args['lambda_max']}.s", dur)


def _quadrature_nodes(tracer, st, args, result, dur):
    # nodes of the rules pi_matrix builds for itself (main and refine check)
    if tracer.parent() == "fourier.pi_matrix":
        tracer.stats["fourier.pi_matrix"].add("nodes", len(result))


def _wrap_orbit_table(tracer, st, args, pair, dur):
    # the orbit table is a closure each instance carries, not a module name
    pair.ad_orbit_table = tracer.wrap("pairs.ad_orbit_table", pair.ad_orbit_table)


def install():
    """Wrap every traced layer of ``motionfields``; returns the tracer.

    Raises RuntimeError if any namespace still holds an unwrapped target.
    """
    from motionfields import (
        cli, dual, fourier, groups, induction, pairs, testfunctions, verifier,
    )

    tracer = Tracer()
    modules = package_modules()

    functions = [
        ("fourier.pi_matrix", fourier.pi_matrix, None, _pi_matrix_figures),
        ("fourier.tau_matrix", fourier.tau_matrix, None, None),
        ("fourier.pi_mu0_matrix", fourier.pi_mu0_matrix, None, None),
        ("fourier.sample_field", fourier.sample_field, None, None),
        ("induction.intertwiners", induction.intertwiners, _intertwiner_key, None),
        ("induction.peter_weyl_basis", induction.peter_weyl_basis, None, None),
        ("verifier.check_h_to_zero", verifier.check_h_to_zero, None, None),
        ("verifier.run_verification", verifier.run_verification, None, None),
        ("dual.converges", dual.converges, None, None),
        ("cli.run_scenario", cli.run_scenario, None, None),
        ("pairs.build_instance", pairs.build_instance, None, _wrap_orbit_table),
    ]
    methods = [
        ("groups.irrep_node_table", groups.CompactGroup, "irrep_node_table",
         _irrep_table_key, None),
        ("groups.irrep_matrix", groups.CompactGroup, "irrep_matrix", None, None),
        ("groups.quadrature", groups.CompactGroup, "quadrature", None,
         _quadrature_nodes),
        ("induction.node_table", induction.PeterWeylBasis, "node_table",
         _psi_key, _psi_bytes),
        ("testfunctions.fhat2_sup", testfunctions.TestFunction, "fhat2_sup",
         None, None),
        ("testfunctions.PolyGaussian.fourier", testfunctions.PolyGaussian,
         "fourier", None, None),
    ]
    for name, fn, key, on_exit in functions:
        _replace_everywhere(modules, fn, tracer.wrap(name, fn, key, on_exit))
    for name, base, attr, key, on_exit in methods:
        for cls in _subclasses(base):
            if attr in vars(cls):
                setattr(cls, attr, tracer.wrap(name, vars(cls)[attr], key, on_exit))
    missed = unwrapped_references(tracer, modules)
    if missed:
        raise RuntimeError("tracer missed: " + ", ".join(missed))
    return tracer


def unwrapped_references(tracer, modules):
    """Module attributes and class methods still bound to a wrapped original."""
    missed = []
    for mod in modules:
        for attr, value in vars(mod).items():
            if id(value) in tracer.wrapped:
                missed.append(f"{mod.__name__}.{attr}")
            if inspect.isclass(value) and value.__module__ == mod.__name__:
                for mname, m in vars(value).items():
                    if id(m) in tracer.wrapped:
                        missed.append(f"{mod.__name__}.{attr}.{mname}")
    return missed
