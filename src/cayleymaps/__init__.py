"""Census machinery for embeddings of Cayley graphs on surfaces.

The package is organized bottom-up:

* :mod:`cayleymaps.groups` -- validated multiplication tables as
  read-only arrays, named families, subgroup closure; row ``g`` of a
  table is the left-regular permutation ``t -> g t`` read by ``perm``;
* :mod:`cayleymaps.perm` -- the one permutation kernel: permutations,
  permutation groups and group tables as integer arrays, with cycles,
  conjugacy classes, and one power table per group (``divisor_powers``),
  the only source of element orders, from which the per-element
  statistics the census formulas read are taken;
* :mod:`cayleymaps.cayley` -- connection-set validation, Cayley graphs,
  and the flag space with its two fixed involutions;
* :mod:`cayleymaps.maps` -- flag permutations as maps: validation,
  surface inventory, automorphisms;
* :mod:`cayleymaps.rotations` -- rotation systems, edge twists, and the
  bridge between signed flags and dart data (keys are moved only by the
  oracle's compiled action);
* :mod:`cayleymaps.autaction` -- graph automorphisms as vertex maps, the
  acting group R(G) x H as one ``perm.PermGroup``, and its lift to flags
  in one gather;
* :mod:`cayleymaps.formulas` -- the class-sum census formulas with
  exact, log2, and mod-p arithmetic;
* :mod:`cayleymaps.oracle` -- exhaustive enumeration of embedding
  classes and Burnside counting, for checking the formulas;
* :mod:`cayleymaps.cycletypes` -- the classes of Sigma_n as one compact
  table of per-class columns, read by the symmetric censuses;
* :mod:`cayleymaps.special` -- the worked censuses: symmetric groups,
  three-involution generation, elementary abelian 2-groups;
* :mod:`cayleymaps.fixtures`, :mod:`cayleymaps.fileio`,
  :mod:`cayleymaps.cli` -- named instances, text formats, front end.

Importing the package loads none of these modules: each name of
``__all__`` is imported from its module on first access, and each ``cli``
subcommand imports the modules it runs when it runs, so a one-shot command
pays only for what it uses.
"""

import importlib

# each re-export and the module it lives in, imported on first access
# through the module ``__getattr__`` (PEP 562)
_EXPORTS = {
    "CayleymapsError": "errors",
    "FIXTURE_NAMES": "fixtures",
    "build_cayley_graph": "cayley",
    "build_flag_space": "cayley",
    "build_group_from_table": "groups",
    "burnside_count": "oracle",
    "census": "formulas",
    "compare_with_formula": "oracle",
    "conjugacy_classes_of": "perm",
    "decompose": "autaction",
    "elementary_abelian_census": "special",
    "enumerate_embeddings": "oracle",
    "fixture": "fixtures",
    "generic_flag_space": "cayley",
    "graph_automorphism_group": "autaction",
    "inventory": "maps",
    "make_report": "formulas",
    "map_automorphisms": "maps",
    "named_group": "groups",
    "realize": "rotations",
    "realize_signed": "rotations",
    "right_regular": "autaction",
    "run_fixture_checks": "fixtures",
    "sym_locally_census": "special",
    "sym_orientable_census": "special",
    "three_involution_census": "special",
    "validate_cayley_set": "cayley",
    "validate_map": "maps",
}


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))


__version__ = "0.1.0"

__all__ = [
    "CayleymapsError",
    "FIXTURE_NAMES",
    "build_cayley_graph",
    "build_flag_space",
    "build_group_from_table",
    "burnside_count",
    "census",
    "compare_with_formula",
    "conjugacy_classes_of",
    "decompose",
    "elementary_abelian_census",
    "enumerate_embeddings",
    "fixture",
    "generic_flag_space",
    "graph_automorphism_group",
    "inventory",
    "make_report",
    "map_automorphisms",
    "named_group",
    "realize",
    "realize_signed",
    "right_regular",
    "run_fixture_checks",
    "sym_locally_census",
    "sym_orientable_census",
    "three_involution_census",
    "validate_cayley_set",
    "validate_map",
]
