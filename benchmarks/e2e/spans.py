"""Per-layer spans, recorded from outside the package.

`Tracer.install` replaces each traced cayley8p function, under every name a
cayley8p module binds it to (`oracle.sweep_minimal_masks` as well as
`kernels.sweep_minimal_masks`), by a wrapper that counts calls and adds up
inclusive time and self time.  Self time is the inclusive time minus the
inclusive time of the traced calls made inside it, so the self times of all
spans add up to the time spent inside outermost spans.

Only functions called once per p or once per automorphism are wrapped.
Per-element work (`apply` on every class member, every mask image) is
counted arithmetically from the sizes and reported as "computed".
"""

import builtins
import json
import sys
import types
from time import perf_counter

import numpy as np

# (module, function, span).  Functions that share a span add into it.
TRACED = [
    ("cli", "main", "cli.main"),
    ("cli", "build_verification_report", "cli.build_verification_report"),
    ("cli", "_report_json", "cli.render"),
    ("cli", "_csv_row", "cli.render"),
    ("autos", "enumerate_aut", "autos.enumerate_aut"),
    ("domain", "build_domain", "domain.build_domain"),
    ("domain", "induced_permutations", "domain.induced_permutations"),
    ("domain", "cycle_type_of", "domain.cycle_type_of"),
    ("domain", "closed_form_cycle_type", "domain.closed_form_cycle_type"),
    ("group", "mul_table", "group.mul_table"),
    ("modular", "discrete_log", "modular.discrete_log"),
    ("polya", "cycle_index_bruteforce", "polya.cycle_index_bruteforce"),
    ("polya", "cycle_index_closed_form", "polya.cycle_index_closed_form"),
    ("polya", "n_total", "polya.n_total"),
    ("polya", "n_circulant", "polya.n_circulant"),
    ("polya", "count_report", "polya.count_report"),
    ("oracle", "burnside_count", "oracle.burnside_count"),
    ("oracle", "_classify_orbits", "oracle.census"),
    ("oracle", "circulant_orbit_count", "oracle.circulant_orbit_count"),
    ("kernels", "sweep_minimal_count", "kernels.sweep"),
    ("kernels", "sweep_minimal_masks", "kernels.sweep"),
    ("kernels", "bit_tables", "kernels.bit_tables"),
]

# every lru_cache in the package; hits and misses come from cache_info()
CACHED = [
    ("domain", "build_domain"),
    ("domain", "induced_permutations"),
    ("polya", "cycle_index_bruteforce"),
    ("polya", "cycle_index_closed_form"),
    ("polya", "n_total"),
    ("polya", "n_circulant"),
    ("group", "mul_table"),
    ("modular", "primitive_root_2p"),
]

# spans reported as self time under "<span>.s"; the other three as "<span>.self_s"
SELF_TIMED = [
    "domain.build_domain",
    "domain.induced_permutations",
    "domain.cycle_type_of",
    "domain.closed_form_cycle_type",
    "autos.enumerate_aut",
    "group.mul_table",
    "modular.discrete_log",
    "polya.cycle_index_bruteforce",
    "polya.cycle_index_closed_form",
    "polya.n_total",
    "polya.n_circulant",
    "polya.count_report",
    "oracle.burnside_count",
    "oracle.circulant_orbit_count",
    "kernels.sweep",
    "kernels.bit_tables",
    "cli.render",
]
CALL_COUNTED = [
    "domain.cycle_type_of",
    "domain.closed_form_cycle_type",
    "autos.enumerate_aut",
    "polya.count_report",
]


class Span:
    __slots__ = ("calls", "total_s", "self_s")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0


class Tracer:
    def __init__(self):
        self.spans: dict[str, Span] = {}
        self.outer_s = 0.0  # inclusive time of outermost spans
        self.class_images = 0
        self.masks = 0
        self.mask_images = 0
        self.survivors = 0
        self.table_bytes = 0
        self._open: list[float] = []  # per open span: inclusive time of its traced children
        self._cached = {}
        self._census_cache = {}

    def wrap(self, name, fn):
        span = self.spans.setdefault(name, Span())
        open_spans = self._open

        def traced(*args, **kwargs):
            open_spans.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                children = open_spans.pop()
                if open_spans:
                    open_spans[-1] += elapsed
                else:
                    self.outer_s += elapsed
                span.calls += 1
                span.total_s += elapsed
                span.self_s += elapsed - children
            self._count(name, args, result)
            return result

        return traced

    def _count(self, name, args, result):
        if name == "kernels.sweep":
            n_maps, n_bits = np.shape(args[0])
            self.masks += 1 << n_bits
            self.mask_images += n_maps << n_bits  # the numpy path has no early exit
            self.survivors += result if isinstance(result, int) else len(result)
        elif name == "kernels.bit_tables":
            self.table_bytes += result[0].nbytes + result[1].nbytes

    def install(self):
        """Wrap every traced function of the imported cayley8p package."""
        modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "cayley8p"]
        package = {m.__name__.rsplit(".", 1)[-1]: m for m in modules}
        self._cached = {f"{m}.{f}": getattr(package[m], f) for m, f in CACHED}
        for name, fn in self._cached.items():
            if not hasattr(fn, "cache_info"):
                raise TypeError(f"{name} is no longer an lru_cache")
        for module, attr, name in TRACED:
            original = getattr(package[module], attr)
            wrapped = self.wrap(name, original)
            if name == "domain.induced_permutations":
                wrapped = self._count_class_images(wrapped, original)
            for m in modules:
                for key in [k for k, v in vars(m).items() if v is original]:
                    setattr(m, key, wrapped)
        self._census_cache = package["oracle"]._census_cache
        # rendering: the text the CLI prints and the JSON it serializes
        cli = package["cli"]
        cli.print = self.wrap("cli.render", builtins.print)
        traced_json = types.ModuleType("json")
        traced_json.__dict__.update(vars(json))
        traced_json.dumps = self.wrap("cli.render", json.dumps)
        cli.json = traced_json

    def _count_class_images(self, wrapped, original):
        def counted(p, *args, **kwargs):
            misses = original.cache_info().misses
            result = wrapped(p, *args, **kwargs)
            if original.cache_info().misses > misses:
                # apply() once per member of each class: 8p - 1 non-identity elements
                self.class_images += len(result) * (8 * p - 1)
            return result

        return counted

    def metrics(self, wall_s: float) -> dict[str, float]:
        """Per-layer metrics of one traced sample whose operations took wall_s."""
        spans = self.spans
        out = {f"{name}.s": spans[name].self_s for name in SELF_TIMED}
        out.update({f"{name}.calls": spans[name].calls for name in CALL_COUNTED})
        census = spans["oracle.census"]
        graphs = sum(sum(split) for split in self._census_cache.values())
        sweep = spans["kernels.sweep"]
        out.update(
            {
                "domain.class_images": self.class_images,
                "kernels.sweeps": sweep.calls,
                "kernels.masks": self.masks,
                "kernels.mask_images": self.mask_images,
                # masks per second of sweep, bit tables included
                "kernels.masks_per_s": self.masks / sweep.total_s if sweep.calls else 0.0,
                "kernels.survivor_ratio": self.survivors / self.masks if self.masks else 0.0,
                "kernels.bit_tables.bytes": self.table_bytes,
                "oracle.census.self_s": census.self_s,
                "oracle.census.graphs": graphs,
                "oracle.census.graphs_per_s": graphs / census.self_s if graphs else 0.0,
                "oracle.census.cache_hits": census.calls - len(self._census_cache),
                "cli.build_verification_report.self_s": spans["cli.build_verification_report"].self_s,
                "cli.main.self_s": spans["cli.main"].self_s,
                "trace.wall_s": wall_s,
                "trace.unattributed_s": wall_s - self.outer_s,
            }
        )
        for name, fn in self._cached.items():
            info = fn.cache_info()
            out[f"{name}.hits"] = info.hits
            out[f"{name}.misses"] = info.misses
        return out
