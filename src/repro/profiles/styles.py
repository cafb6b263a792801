"""Architecture styles for the Figure 1 comparison.

Figure 1 charts the evolution: monolithic -> extensible -> component ->
adaptable (service-based).  To make that figure *measurable*, each style
builds the same engine with a different coupling discipline, and
``style_report`` scores the flexibility actions the paper cares about:
can you swap a part at run time, how many components does an update stop,
can the system survive a component failure.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ArchitectureStyle:
    """Flexibility scorecard entries for one architecture style.

    The boolean/step figures are *structural* facts about the coupling
    discipline; tests/profiles/test_profiles.py (``TestArchitectureStyles``)
    pins the scorecard they produce.
    """

    name: str
    era: int                         # position on Figure 1's arrow
    runtime_swap: bool               # replace a part without full restart
    services_stopped_per_update: str  # "all" or "1"
    survives_component_failure: bool
    integrates_external_functionality: bool
    downsizable: bool

    def flexibility_score(self) -> int:
        """Count of flexibility capabilities (0-4)."""
        return sum([
            self.runtime_swap,
            self.survives_component_failure,
            self.integrates_external_functionality,
            self.downsizable,
        ])


MONOLITHIC = ArchitectureStyle(
    name="monolithic", era=1,
    runtime_swap=False,
    services_stopped_per_update="all",
    survives_component_failure=False,
    integrates_external_functionality=False,
    downsizable=False)

EXTENSIBLE = ArchitectureStyle(
    name="extensible", era=2,
    runtime_swap=False,
    services_stopped_per_update="all",
    survives_component_failure=False,
    integrates_external_functionality=True,   # top-level front ends only
    downsizable=False)

COMPONENT = ArchitectureStyle(
    name="component", era=3,
    runtime_swap=True,
    services_stopped_per_update="all",        # dependent components too
    survives_component_failure=False,
    integrates_external_functionality=True,
    downsizable=True)

ADAPTABLE = ArchitectureStyle(
    name="adaptable (SBDMS)", era=4,
    runtime_swap=True,
    services_stopped_per_update="1",
    survives_component_failure=True,
    integrates_external_functionality=True,
    downsizable=True)

ARCHITECTURE_STYLES = (MONOLITHIC, EXTENSIBLE, COMPONENT, ADAPTABLE)


def style_report() -> list[dict]:
    """Figure 1 as a table: style, era, capabilities, score."""
    return [
        {
            "style": style.name,
            "era": style.era,
            "runtime_swap": style.runtime_swap,
            "update_stops": style.services_stopped_per_update,
            "survives_failure": style.survives_component_failure,
            "integrates_external": style.integrates_external_functionality,
            "downsizable": style.downsizable,
            "flexibility_score": style.flexibility_score(),
        }
        for style in ARCHITECTURE_STYLES
    ]
