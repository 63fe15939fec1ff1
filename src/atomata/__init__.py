"""atomata: syntactic complexity and atom complexities of regular languages.

The package computes transition semigroups, atoms and their quotient
complexities, and the atomaton of a regular language, and runs search
campaigns relating maximal syntactic complexity to maximal atom complexity
at small state counts.
"""

from .atoms import (
    Atomaton,
    AtomReport,
    atom_count,
    atom_minimal_dfa,
    atom_quotient_complexity,
    atoms_of,
    build_atomaton,
    is_maximal_atoms,
    membership_in_atom,
)
from .automata import (
    Dfa,
    Nfa,
    accepts,
    determinize,
    is_isomorphic,
    is_minimal,
    minimize,
    quotient_complexity,
    reverse,
)
from .bounds import max_atom_complexity, max_over_r
from .document import parse_dfa, serialize_dfa
from .errors import (
    AtomataError,
    ClosureCapError,
    DegreeMismatchError,
    DfaParseError,
    EnumerationCapError,
    FullSemigroupError,
    IntervalConsistencyError,
    NotAnAtomError,
    UnknownLetterError,
)
from .intervals import (
    Interval,
    count_from_types,
    eta_letter,
    eta_letter_on_interval,
    eta_word_perm,
    interval_reach_count,
    interval_reach_report,
    interval_reach_types,
    type_reachability,
)
from .search import (
    CampaignRecord,
    CampaignReport,
    example1,
    find_converse_counterexamples,
    random_dfa,
    verify_prop1,
    verify_prop2,
    verify_theorem3,
    witness_max_semigroup,
)
from .semigroup import (
    SemigroupSummary,
    TransitionSemigroup,
    WordWitness,
    generates_full,
    semigroup_summary,
    syntactic_complexity,
    transition_semigroup,
    word_for,
)
from .stateset import StateSet, format_subset_label, parse_subset_label
from .transformations import (
    Transformation,
    all_transformations,
    apply_to_set,
    coimage,
    compose,
    decompose_singular_perm,
    identity,
    image,
    is_permutation,
    is_preimage,
    make_constant,
    make_cycle,
    make_singular,
    make_transposition,
    preimage_of_set,
)

__version__ = "0.1.0"
