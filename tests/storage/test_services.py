"""Storage service granularity tests (the future-work study's substrate)."""

import pytest

from repro.core import SimClock, LocalBinding, make_binding
from repro.storage.services import (
    GRANULARITIES,
    BufferManagerService,
    GranularStorage,
    StorageService,
    StorageStack,
)


class TestStorageStack:
    def test_read_write_round_trip(self):
        stack = StorageStack()
        page_no = stack.allocate("data")
        stack.write("data", page_no, 0, b"hello")
        assert stack.read("data", page_no, 0, 5) == b"hello"

    def test_properties_shape(self):
        stack = StorageStack()
        stack.allocate("data")
        props = stack.properties()
        for key in ("capacity", "resident", "files", "disk_reads",
                    "disk_writes", "workload"):
            assert key in props


class TestGranularities:
    @pytest.mark.parametrize("granularity", GRANULARITIES)
    def test_uniform_api_round_trips(self, granularity):
        storage = GranularStorage(granularity)
        page = storage.allocate("f")
        storage.write("f", page, 0, b"payload")
        assert storage.read("f", page, 0, 7) == b"payload"
        storage.flush()

    def test_service_counts(self):
        assert len(GranularStorage("coarse").services) == 1
        assert len(GranularStorage("medium").services) == 4
        assert len(GranularStorage("fine").services) == 5

    def test_unknown_granularity_rejected(self):
        with pytest.raises(ValueError):
            GranularStorage("nano")

    def test_fine_granularity_crosses_more_boundaries(self):
        crossings = {}
        for granularity in GRANULARITIES:
            storage = GranularStorage(granularity)
            page = storage.allocate("f")
            for _ in range(10):
                storage.write("f", page, 0, b"x" * 64)
                storage.read("f", page, 0, 64)
            crossings[granularity] = storage.boundary_crossings
        assert crossings["coarse"] < crossings["fine"]
        assert crossings["coarse"] <= crossings["medium"]

    def test_binding_cost_accumulates_per_granularity(self):
        times = {}
        for binding in ("local", "rmi", "soap"):
            for granularity in GRANULARITIES:
                clock = SimClock()
                storage = GranularStorage(
                    granularity, binding=make_binding(binding, clock))
                page = storage.allocate("f")
                for _ in range(20):
                    storage.write("f", page, 0, b"x" * 128)
                    storage.read("f", page, 0, 128)
                times[binding, granularity] = clock.now
        # More boundaries -> more protocol tax, under every costly binding.
        for binding in ("rmi", "soap"):
            assert times[binding, "coarse"] < times[binding, "fine"]
        # In-process decomposition is free; SOAP costs more than RMI.
        assert times["local", "fine"] == 0.0
        for granularity in GRANULARITIES:
            assert times["soap", granularity] > times["rmi", granularity]

    def test_same_stack_shared_across_granularities(self):
        stack = StorageStack()
        coarse = GranularStorage("coarse", stack=stack)
        fine = GranularStorage("fine", stack=stack,
                               binding=LocalBinding())
        page = coarse.allocate("shared")
        coarse.write("shared", page, 0, b"from-coarse")
        assert fine.read("shared", page, 0, 11) == b"from-coarse"


class TestServiceWrappers:
    def test_storage_service_monitor(self):
        stack = StorageStack()
        service = StorageService(stack)
        service.setup()
        service.start()
        service.invoke("allocate", file="f")
        report = service.invoke("monitor")
        assert report["files"] == 1
        assert "hit_rate" in report

    def test_buffer_policy_swap_via_service(self):
        stack = StorageStack()
        service = BufferManagerService(stack)
        service.setup()
        service.start()
        page = stack.allocate("f")
        stack.write("f", page, 0, b"x")
        service.invoke("set_policy", name="clock")
        assert stack.pool.policy.name == "clock"
        # Data still readable after the swap.
        assert service.invoke("read", file="f", page_no=page, offset=0,
                              length=1) == b"x"
        assert service.get_property("replacement_policy") == "clock"

    def test_footprint_scales_with_buffer(self):
        small = StorageService(StorageStack(buffer_capacity=8))
        large = StorageService(StorageStack(buffer_capacity=512))
        assert small.contract.quality.footprint_kb < \
            large.contract.quality.footprint_kb
