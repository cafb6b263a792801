"""Deployment profiles, the SBDMS facade, and architecture styles."""

import pytest

from repro import SBDMS
from repro.profiles import (
    ARCHITECTURE_STYLES,
    FULL,
    PROFILES,
    QUERY_ONLY,
    build_system,
    style_report,
)


class TestProfiles:
    def test_full_profile_has_all_layers(self):
        system = build_system(FULL)
        layers = system.kernel.snapshot()["layers"]
        assert layers["storage"] and layers["access"] and layers["data"]
        assert len(layers["extension"]) >= 4

    def test_embedded_smaller_than_full(self):
        footprint = {name: build_system(profile).footprint()
                     for name, profile in PROFILES.items()}
        assert footprint["embedded"]["services"] < \
            footprint["full"]["services"]
        kb = {name: fp["footprint_kb"] for name, fp in footprint.items()}
        # Footprint is monotone in deployed functionality.
        assert kb["embedded"] < kb["query-only"] <= kb["streaming"] \
            < kb["full"]
        assert kb["full"] / kb["embedded"] > 1.5

    def test_profiles_registry(self):
        assert set(PROFILES) == {"full", "embedded", "query-only",
                                 "streaming"}

    def test_query_only_profile_works(self):
        system = build_system(QUERY_ONLY)
        result = system.kernel.sql("SELECT 40 + 2")
        assert result["rows"] == [(42,)]

    def test_downsizing_by_retire(self):
        system = build_system(FULL)
        footprints = [system.footprint()["footprint_kb"]]
        for name in ("xml", "streaming", "procedures", "replication",
                     "storage-monitor"):
            system.kernel.retire(name)
            footprints.append(system.footprint()["footprint_kb"])
        assert footprints == sorted(footprints, reverse=True)
        assert footprints[-1] < footprints[0]
        # The downsized system still answers queries.
        assert system.kernel.sql("SELECT 1")["rows"] == [(1,)]

    def test_profile_by_name(self):
        system = build_system("embedded")
        assert system.profile.name == "embedded"
        with pytest.raises(KeyError):
            build_system("gigantic")


class TestSBDMSFacade:
    def test_sql_round_trip(self):
        system = SBDMS(profile="query-only")
        system.sql("CREATE TABLE t (id INT PRIMARY KEY, v TEXT)")
        system.sql("INSERT INTO t VALUES (?, ?)", (1, "x"))
        assert system.query("SELECT v FROM t") == [("x",)]

    def test_snapshot_has_footprint(self):
        system = SBDMS(profile="embedded")
        snap = system.snapshot()
        assert snap["footprint"]["profile"] == "embedded"

    def test_monitor_and_shutdown(self):
        system = SBDMS(profile="query-only")
        sweep = system.monitor()
        assert "managed" in sweep
        system.shutdown()
        assert all(not s.available for s in system.registry.all())


class TestArchitectureStyles:
    def test_flexibility_monotone_along_evolution(self):
        scores = [s.flexibility_score() for s in ARCHITECTURE_STYLES]
        assert scores == sorted(scores)
        assert scores[-1] == 4  # SBDMS has every capability

    def test_report_shape(self):
        report = style_report()
        assert [r["era"] for r in report] == [1, 2, 3, 4]
        assert report[0]["style"] == "monolithic"
        assert report[-1]["update_stops"] == "1"
