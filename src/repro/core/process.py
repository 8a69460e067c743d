"""The Basic Design Cycle and the Overall Process (paper §3.5, Figure 8).

The BDC is the paper's eight-element loop:

1. Formulate requirements
2. Understand alternatives
3. Bootstrap the creative process
4. High-level and low-level design
5. Implementation (analysis code, simulators, prototypes)
6. Conceptual analysis
7. Experimental analysis
8. Result summarizing and dissemination

Stages are *skippable per iteration* — the framework's signature feature —
and the cycle stops on one of five criteria (satisficed / portfolio /
systematic / exhausted / out-of-budget). The Overall Process nests BDCs:
any complex stage may expand into a child cycle, and the provenance of
every decision is recorded in a :class:`DesignDocument` (the Challenge C8
formalism).
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Optional, Sequence, Union


class Stage(enum.Enum):
    """The eight BDC elements (§3.5)."""

    FORMULATE_REQUIREMENTS = 1
    UNDERSTAND_ALTERNATIVES = 2
    BOOTSTRAP_CREATIVE = 3
    DESIGN = 4
    IMPLEMENTATION = 5
    CONCEPTUAL_ANALYSIS = 6
    EXPERIMENTAL_ANALYSIS = 7
    DISSEMINATION = 8


class StoppingCriterion(enum.Enum):
    """§3.5's five stopping criteria."""

    SATISFICED = "satisficed"            # one good-enough answer
    PORTFOLIO = "portfolio"              # a few answers for a human reviewer
    SYSTEMATIC = "systematic"            # many answers, systematic design
    EXHAUSTED = "design-space-exhausted"  # all answers
    BUDGET = "out-of-budget"             # time or resources ran out


#: Default answer-count thresholds per criterion.
PORTFOLIO_SIZE = 3
SYSTEMATIC_SIZE = 10


@dataclass
class ProvenanceEvent:
    """One recorded design decision (the C8 documentation formalism)."""

    iteration: int
    stage: str
    action: str  # "executed" | "skipped" | "expanded" | "stopped"
    note: str = ""
    payload: Any = None


@dataclass
class DesignDocument:
    """Append-only provenance log of a design effort.

    "An open process for design requires more than its final results and
    artifacts to be made public" (C8) — the document captures who did what
    at which iteration and why, and serializes to JSON for archiving.
    """

    problem: str
    events: list[ProvenanceEvent] = field(default_factory=list)

    def log(self, iteration: int, stage: Union[Stage, str], action: str,
            note: str = "") -> None:
        name = stage.name if isinstance(stage, Stage) else str(stage)
        self.events.append(ProvenanceEvent(
            iteration=iteration, stage=name, action=action, note=note))

    def iterations(self) -> int:
        return max((e.iteration for e in self.events), default=-1) + 1

    def skipped(self) -> list[ProvenanceEvent]:
        return [e for e in self.events if e.action == "skipped"]

    def executed(self) -> list[ProvenanceEvent]:
        return [e for e in self.events if e.action == "executed"]

    def to_json(self) -> str:
        return json.dumps({
            "problem": self.problem,
            "events": [
                {"iteration": e.iteration, "stage": e.stage,
                 "action": e.action, "note": e.note}
                for e in self.events
            ],
        }, indent=2)

    def save(self, path: Union[str, Path]) -> Path:
        path = Path(path)
        path.write_text(self.to_json())
        return path


@dataclass
class CycleResult:
    """Outcome of running a BDC (or an Overall Process)."""

    stopped_by: StoppingCriterion
    answers: list[Any]
    iterations: int
    budget_spent: int
    document: DesignDocument

    @property
    def succeeded(self) -> bool:
        return self.stopped_by is not StoppingCriterion.BUDGET or bool(
            self.answers)


#: A stage handler receives a mutable context dict and returns either
#: None (no answer this stage) or an answer object to add to the answers.
StageHandler = Callable[[dict], Any]


class BasicDesignCycle:
    """The iterative eight-stage loop with skippable stages.

    Parameters
    ----------
    problem_name:
        For the provenance document.
    handlers:
        Mapping of :class:`Stage` to a handler; stages without handlers
        are implicitly skippable.
    skip_policy:
        ``skip_policy(stage, iteration, context) -> bool``; True skips the
        stage this iteration (the OP's per-iteration tailoring).
    target:
        The stopping criterion the designers aim for; the cycle may still
        stop earlier on BUDGET.
    budget:
        Maximum stage executions (the cycle's time-and-resources budget).
    """

    STAGES: Sequence[Stage] = tuple(Stage)

    def __init__(self, problem_name: str,
                 handlers: dict[Stage, StageHandler],
                 skip_policy: Optional[Callable[[Stage, int, dict], bool]] = None,
                 target: StoppingCriterion = StoppingCriterion.SATISFICED,
                 budget: int = 200,
                 space_size: Optional[int] = None):
        if budget <= 0:
            raise ValueError("budget must be positive")
        if target is StoppingCriterion.BUDGET:
            raise ValueError(
                "BUDGET is the fallback criterion, not a target")
        self.problem_name = problem_name
        self.handlers = dict(handlers)
        self.skip_policy = skip_policy or (lambda stage, i, ctx: False)
        self.target = target
        self.budget = budget
        self.space_size = space_size

    def _target_met(self, answers: list[Any]) -> bool:
        if self.target is StoppingCriterion.SATISFICED:
            return len(answers) >= 1
        if self.target is StoppingCriterion.PORTFOLIO:
            return len(answers) >= PORTFOLIO_SIZE
        if self.target is StoppingCriterion.SYSTEMATIC:
            return len(answers) >= SYSTEMATIC_SIZE
        if self.target is StoppingCriterion.EXHAUSTED:
            if self.space_size is None:
                raise ValueError(
                    "EXHAUSTED target requires space_size to be known")
            return len(answers) >= self.space_size
        return False

    def run(self, context: Optional[dict] = None) -> CycleResult:
        context = context if context is not None else {}
        document = DesignDocument(problem=self.problem_name)
        answers: list[Any] = []
        spent = 0
        iteration = 0
        while True:
            for stage in self.STAGES:
                if spent >= self.budget:
                    document.log(iteration, "cycle", "stopped",
                                 note="budget exhausted")
                    return CycleResult(
                        stopped_by=StoppingCriterion.BUDGET,
                        answers=answers, iterations=iteration + 1,
                        budget_spent=spent, document=document)
                handler = self.handlers.get(stage)
                if handler is None or self.skip_policy(stage, iteration,
                                                       context):
                    document.log(iteration, stage, "skipped")
                    continue
                spent += 1
                answer = handler(context)
                document.log(iteration, stage, "executed",
                             note="" if answer is None else "produced answer")
                if answer is not None:
                    answers.append(answer)
                if self._target_met(answers):
                    document.log(iteration, "cycle", "stopped",
                                 note=f"target {self.target.value} met")
                    return CycleResult(
                        stopped_by=self.target, answers=answers,
                        iterations=iteration + 1, budget_spent=spent,
                        document=document)
            iteration += 1


class OverallProcess:
    """Hierarchical composition of BDCs (Figure 8).

    The OP is itself a BDC whose complex stages (implementation,
    experimentation, dissemination) may expand into child BDCs. A child is
    declared by mapping a stage to a :class:`BasicDesignCycle`; its answers
    feed the parent context under ``context['children'][stage]``, and the
    expansion is recorded in the provenance document.
    """

    EXPANDABLE = {Stage.IMPLEMENTATION, Stage.EXPERIMENTAL_ANALYSIS,
                  Stage.DISSEMINATION}

    def __init__(self, cycle: BasicDesignCycle,
                 children: Optional[dict[Stage, BasicDesignCycle]] = None):
        self.cycle = cycle
        self.children = dict(children or {})
        for stage in self.children:
            if stage not in self.EXPANDABLE:
                raise ValueError(
                    f"stage {stage.name} cannot expand into a child BDC; "
                    f"expandable: {sorted(s.name for s in self.EXPANDABLE)}")

    def run(self, context: Optional[dict] = None) -> CycleResult:
        context = context if context is not None else {}
        context.setdefault("children", {})
        original_handlers = dict(self.cycle.handlers)
        try:
            for stage, child in self.children.items():
                self.cycle.handlers[stage] = self._expanding_handler(
                    stage, child, original_handlers.get(stage))
            result = self.cycle.run(context)
        finally:
            self.cycle.handlers = original_handlers
        return result

    def _expanding_handler(self, stage: Stage, child: BasicDesignCycle,
                           fallback: Optional[StageHandler]) -> StageHandler:
        def handler(context: dict) -> Any:
            child_result = child.run(dict(context))
            context["children"].setdefault(stage, []).append(child_result)
            if fallback is not None:
                return fallback(context)
            # The child's first answer (if any) becomes the stage's answer.
            return child_result.answers[0] if child_result.answers else None
        return handler
