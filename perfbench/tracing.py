"""Per-layer tracing from outside the package.

``Tracer.install`` replaces each listed public function with a timing
wrapper in every ``cayleymaps.*`` namespace that binds it, so call sites
such as ``from .rotations import transport_rotation_system`` are caught
too; ``uninstall`` puts the originals back.  Per-element helpers
(``compose_vertex_maps``, ``canonical_rotation``, ...) are deliberately not
wrapped: they run up to 10^8 times per job, and their time lands in the
caller's self time.  A listed function that no longer exists is reported
as absent.

Each call records a span (id, name, start, end, parent id, job id) for the
first ``SPAN_CAP`` calls into its layer; beyond that only the aggregate count
and self time grow.  Self time is a span's duration minus its children's.
A call made from inside the same layer (``realize`` calling
``realize_signed``) is not counted again.
The root span of every job is ``cli.main``, so the self times of all
layers add up to the traced job time.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

SPAN_CAP = 5_000

# layer metric prefix -> (module, public functions whose self time it takes,
# whether the layer also reports ``<layer>.calls``)
LAYERS = {
    "rotations.transport": ("rotations", ["transport_rotation_system", "transport_twists"], True),
    "rotations.realize": ("rotations", ["realize", "realize_signed"], True),
    "rotations": ("rotations", [
        "build_dart_structure", "build_twist_classes", "rotation_system_count",
        "dart_map_of_flag_map", "edge_map_of_dart_map", "twists_of_signs", "signs_of_twists",
    ], False),
    "maps.validate": ("maps", ["validate_map"], True),
    "maps.inventory": ("maps", ["inventory"], True),
    "maps": ("maps", [
        "is_orientable", "face_permutation", "map_automorphisms",
        "orientation_preserving_automorphisms", "is_isomorphic", "side_swap_group",
        "conjugate_map", "canonical_side_class",
    ], False),
    "oracle.enumerate": ("oracle", ["enumerate_embeddings"], False),
    "oracle.burnside": ("oracle", ["burnside_count"], False),
    "oracle.fixed_count": ("oracle", ["fixed_count"], True),
    "oracle": ("oracle", ["compare_with_formula", "acting_group", "extend_group", "ground_set_bound"], False),
    "autaction.aut_search": ("autaction", ["graph_automorphism_group", "decompose"], False),
    "autaction.extend": ("autaction", ["extend_to_flags"], True),
    "autaction.product_group": ("autaction", ["product_group"], False),
    "autaction": ("autaction", [
        "right_regular", "construct_stable_map", "is_graph_automorphism", "is_semi_regular",
        "vertex_orbits", "conjugate_flag_permutation",
    ], False),
    "formulas.conjugacy": ("formulas", ["conjugacy_classes_of"], False),
    "formulas.class_stats": ("formulas", ["class_stats"], True),
    "formulas.log2": ("formulas", ["log2_of_int"], True),
    "formulas": ("formulas", [
        "census", "grr_census", "make_report", "parse_mode", "phi_exact", "phi_formula",
        "permutation_order", "permutation_power",
    ], False),
    "special": ("special", [
        "sym_orientable_census", "sym_locally_census", "sym_l_table", "three_involution_census",
        "three_involution_comparison", "elementary_abelian_census", "build_b1_b2",
    ], False),
    "groups": ("groups", [
        "build_group_from_table", "build_group_from_permutation_generators", "named_group",
        "direct_product", "conjugacy_classes", "centralizer", "subgroup_closure", "element_order",
    ], False),
    "cayley": ("cayley", [
        "validate_cayley_set", "build_cayley_graph", "build_flag_space", "generic_flag_space",
        "quadricells",
    ], False),
    "fileio": ("fileio", [
        "resolve_fixture", "load_group", "load_cayset", "load_cayset_members", "load_map",
        "load_automorphisms", "save_group", "save_cayset", "save_map", "save_automorphisms",
    ], False),
    "fixtures": ("fixtures", ["fixture", "run_fixture_checks", "fig1_flag_space", "fig1_map"], False),
    "cli": ("cli", ["main"], False),
}

# Counters read off results at the same boundaries: function -> (counter, amount).
COUNTERS = {
    "enumerate_embeddings": ("oracle.keys", lambda r: len(r.keys)),
    "burnside_count": ("oracle.orbits", lambda r: r.orbit_count),
    "census": ("formulas.classes", lambda r: len(r.classes)),
    "three_involution_comparison": ("formulas.classes", len),
    "sym_orientable_census": ("special.partitions", lambda r: len(r.rows)),
    "sym_locally_census": ("special.partitions", lambda r: len(r.rows)),
}


class Tracer:
    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.spans: list[tuple] = []
        self._stored: dict[str, int] = defaultdict(int)
        self.absent: list[str] = []
        self.job = ""
        self._stack: list[list] = []  # [child seconds, span id, layer]
        self._next_id = 0
        self._patched: list[tuple] = []

    def _wrap(self, fn, layer: str, name: str):
        calls, self_s, stack, spans, stored = self.calls, self.self_s, self._stack, self.spans, self._stored
        counter = COUNTERS.get(name)
        counts = self.counts

        def traced(*args, **kwargs):
            self._next_id += 1
            frame = [0.0, self._next_id, layer]
            parent = stack[-1][1] if stack else 0
            nested = bool(stack) and stack[-1][2] == layer
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][0] += dur
                calls[layer] += not nested
                self_s[layer] += dur - frame[0]
                if stored[layer] < SPAN_CAP:
                    stored[layer] += 1
                    spans.append((frame[1], name, t0, t1, parent, self.job))
            if counter is not None:
                counts[counter[0]] += counter[1](result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        mods = [m for k, m in list(sys.modules.items()) if k == "cayleymaps" or k.startswith("cayleymaps.")]
        for layer, (module, names, _) in LAYERS.items():
            home = sys.modules.get(f"cayleymaps.{module}")
            for name in names:
                fn = getattr(home, name, None)
                if fn is None:
                    self.absent.append(f"{module}.{name}")
                    continue
                wrapper = self._wrap(fn, layer, name)
                for mod in mods:
                    for attr, val in list(vars(mod).items()):
                        if val is fn:
                            setattr(mod, attr, wrapper)
                            self._patched.append((mod, attr, fn))

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._patched):
            setattr(mod, attr, fn)
        self._patched.clear()

    def reset(self) -> None:
        """Clears the aggregates (not the spans) between passes."""
        self.calls.clear()
        self.self_s.clear()
        self.counts.clear()

    def write(self, path: Path) -> None:
        keys = ("id", "name", "start", "end", "parent", "job")
        with path.open("w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")
