"""Census machinery for embeddings of Cayley graphs on surfaces.

The package is organized bottom-up:

* :mod:`cayleymaps.groups` -- validated multiplication tables as
  read-only arrays, named families, subgroup closure; row ``g`` of a
  table is the left-regular permutation ``t -> g t`` read by ``perm``;
* :mod:`cayleymaps.perm` -- the one permutation kernel: permutations,
  permutation groups and group tables as integer arrays, with cycles,
  orders, powers, conjugacy classes, and the per-element statistics the
  census formulas read;
* :mod:`cayleymaps.cayley` -- connection-set validation, Cayley graphs,
  and the flag space with its two fixed involutions;
* :mod:`cayleymaps.maps` -- flag permutations as maps: validation,
  surface inventory, automorphisms;
* :mod:`cayleymaps.rotations` -- rotation systems, edge twists, and the
  bridge between signed flags and dart data;
* :mod:`cayleymaps.autaction` -- graph automorphisms as vertex maps, the
  acting group R(G) x H as one ``perm.PermGroup``, its lift to flags in
  one gather, and the stable-map construction;
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
"""

from .autaction import (
    construct_stable_map,
    decompose,
    graph_automorphism_group,
    right_regular,
)
from .cayley import (
    build_cayley_graph,
    build_flag_space,
    generic_flag_space,
    validate_cayley_set,
)
from .errors import CayleymapsError
from .fixtures import FIXTURE_NAMES, fixture, run_fixture_checks
from .formulas import census, make_report
from .groups import build_group_from_table, named_group
from .maps import inventory, map_automorphisms, validate_map
from .oracle import burnside_count, compare_with_formula, enumerate_embeddings
from .perm import conjugacy_classes_of
from .rotations import realize, realize_signed
from .special import (
    elementary_abelian_census,
    sym_locally_census,
    sym_orientable_census,
    three_involution_census,
)

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
    "construct_stable_map",
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
