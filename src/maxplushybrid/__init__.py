"""Max-plus automata, switching max-plus linear systems and max-algebraic
hybrid automata, with constructive translations and equivalence checks."""

from .tropical import (
    EPS,
    TOP,
    UNIT,
    TropicalMatrix,
    Weight,
    oplus,
    otimes,
)
from .expressions import (
    ConjunctiveForm,
    Const,
    InputVar,
    MatrixForm,
    Max,
    Min,
    MmpsExpression,
    Plus,
    Scale,
    Var,
    eval_expr,
    to_conjunctive,
    to_matrix_form,
    transition_graph_f,
    transition_graph_h,
)
from .finite import FiniteAutomaton, Word
from .mpa import (
    MaxPlusAutomaton,
    MpaBehaviour,
    accepts,
    eval_output,
    eval_state,
    to_finite_abstraction,
)
from .smpl import (
    ControllerHook,
    MatrixMode,
    SmplBehaviour,
    SmplDims,
    SmplSystem,
    StepInput,
    Stepper,
    StepRecord,
    SwitchingKind,
    SwitchingRule,
    from_mpa,
    simulate,
    Trace,
    static_feedback,
    step,
)
from .hybrid import (
    HybridAutomaton,
    HybridState,
    MahaBehaviour,
    finite_abstraction,
    from_smpl_closed,
    from_smpl_open,
    hybrid_step,
    mpa_chain_abstraction,
    run,
)
from .equivalence import (
    SimulationWitness,
    behavioural_inclusion_upto,
    bisimulation,
    greatest_simulation,
    language_equal_exact,
    language_equal_upto,
)
from .serialization import ModelDocument, parse_model

__version__ = "0.1.0"
