"""Tests for the Figure 9 reference architectures and mappings."""

import pytest

from repro.refarch import (
    BIG_DATA_2011,
    DATACENTER_2016,
    INDUSTRY_ECOSYSTEMS,
    KNOWN_COMPONENTS,
    Layer,
    MAPREDUCE_ECOSYSTEM,
    ReferenceArchitecture,
    component,
    coverage,
    map_ecosystem,
)


class TestArchitectureModel:
    def test_2011_has_four_layers(self):
        assert len(BIG_DATA_2011.layers) == 4
        assert [l.name for l in BIG_DATA_2011.layers] == [
            "Storage Engine", "Execution Engine", "Programming Model",
            "High-Level Language"]

    def test_2016_has_five_core_plus_devops(self):
        layers = DATACENTER_2016.layers
        assert len([l for l in layers if not l.orthogonal]) == 5
        ortho = [l for l in layers if l.orthogonal]
        assert len(ortho) == 1
        assert ortho[0].name == "DevOps"

    def test_2016_sublayers_present(self):
        by_name = {l.name: l for l in DATACENTER_2016.layers}
        frontend = by_name["Front-end"]
        backend = by_name["Back-end"]
        assert len(frontend.sublayers) == 3
        assert len(backend.sublayers) == 3

    def test_duplicate_layer_names_rejected(self):
        with pytest.raises(ValueError):
            ReferenceArchitecture("x", "now", [
                Layer(1, "A", {"a"}), Layer(2, "A", {"b"})])

    def test_component_str(self):
        assert str(KNOWN_COMPONENTS["Hadoop"]) == "Hadoop"


class TestMapReduceMapping:
    def test_core_ecosystem_fits_both_generations(self):
        """Fig. 9: 'the core ecosystem maps well to both architectures'."""
        assert coverage(BIG_DATA_2011, MAPREDUCE_ECOSYSTEM) == 1.0
        assert coverage(DATACENTER_2016, MAPREDUCE_ECOSYSTEM) == 1.0

    def test_hadoop_is_execution_engine_in_2011(self):
        mapping = map_ecosystem(BIG_DATA_2011, MAPREDUCE_ECOSYSTEM)
        assert "Execution Engine" in mapping.placed["Hadoop"]

    def test_yarn_moves_to_resources_layer_in_2016(self):
        mapping = map_ecosystem(DATACENTER_2016, MAPREDUCE_ECOSYSTEM)
        assert mapping.placed["YARN"] == ["Resources"]

    def test_zookeeper_is_operations_service_in_2016(self):
        mapping = map_ecosystem(DATACENTER_2016, MAPREDUCE_ECOSYSTEM)
        assert "Operations Service" in mapping.placed["Zookeeper"]


class TestArchitectureEvolution:
    """The paper's argument: the 2011 architecture cannot place the newer
    systems; the 2016 one encompasses them."""

    NEW_SYSTEMS = ["MemEFS", "Pocket", "Crail", "FlashNet", "Graphalytics",
                   "Granula", "JupyterHub"]

    def test_2011_cannot_place_new_systems(self):
        for name in self.NEW_SYSTEMS:
            assert not BIG_DATA_2011.place(KNOWN_COMPONENTS[name]), name

    def test_2016_places_all_new_systems(self):
        for name in self.NEW_SYSTEMS:
            assert DATACENTER_2016.place(KNOWN_COMPONENTS[name]), name

    def test_2016_covers_all_industry_ecosystems(self):
        for eco_name, comps in INDUSTRY_ECOSYSTEMS.items():
            assert coverage(DATACENTER_2016, comps) == 1.0, eco_name

    def test_2011_coverage_strictly_lower_on_modern_stack(self):
        modern = INDUSTRY_ECOSYSTEMS["modern-datacenter"]
        assert coverage(BIG_DATA_2011, modern) < coverage(
            DATACENTER_2016, modern)

    def test_unplaced_components_are_reported(self):
        mapping = map_ecosystem(
            BIG_DATA_2011, INDUSTRY_ECOSYSTEMS["modern-datacenter"])
        assert "MemEFS" in mapping.unplaced
        assert "Hadoop" in mapping.placed

    def test_devops_tools_map_to_orthogonal_layer(self):
        mapping = map_ecosystem(
            DATACENTER_2016, [KNOWN_COMPONENTS["Graphalytics"],
                              KNOWN_COMPONENTS["Granula"]])
        assert mapping.placed["Graphalytics"] == ["DevOps"]
        assert mapping.placed["Granula"] == ["DevOps"]


class TestCustomComponents:
    def test_component_spanning_layers(self):
        spanner = component("Spanner-like", "storage-engine",
                            "coordination")
        layers = {l.name for l in DATACENTER_2016.place(spanner)}
        assert layers == {"Back-end", "Operations Service"}

    def test_unknown_concern_unplaceable(self):
        odd = component("QuantumThing", "quantum-annealing")
        assert not DATACENTER_2016.place(odd)
        mapping = map_ecosystem(DATACENTER_2016, [odd])
        assert mapping.coverage == 0.0

    def test_empty_ecosystem_coverage_is_one(self):
        assert coverage(DATACENTER_2016, []) == 1.0

    def test_layers_used(self):
        mapping = map_ecosystem(DATACENTER_2016, MAPREDUCE_ECOSYSTEM)
        used = mapping.layers_used()
        assert "Front-end" in used
        assert "Resources" in used
