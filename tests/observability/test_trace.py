"""Unit tests for the span tracer and its deterministic serialization."""

import json

import pytest

from repro.observability import TRACE_FORMAT_VERSION, Tracer
from repro.sim import Environment


class TestSpanLifecycle:
    def test_start_and_end_capture_sim_time(self):
        env = Environment()
        tracer = Tracer().bind(env)
        span = tracer.start_span("serverless.invoke", function="f")
        env.run(until=2.5)
        tracer.end_span(span)
        assert span.t_start == 0.0
        assert span.t_end == 2.5
        assert span.finished

    def test_domain_defaults_to_first_name_component(self):
        tracer = Tracer()
        span = tracer.start_span("scheduling.task", t=0.0)
        assert span.domain == "scheduling"

    def test_explicit_time_overrides_clock(self):
        tracer = Tracer()
        span = tracer.start_span("mmog.provisioning", t=10.0)
        tracer.end_span(span, t=40.0)
        assert (span.t_start, span.t_end) == (10.0, 40.0)

    def test_unbound_tracer_without_time_raises(self):
        tracer = Tracer()
        with pytest.raises(ValueError, match="not bound"):
            tracer.start_span("x.y")

    def test_double_end_raises(self):
        tracer = Tracer()
        span = tracer.start_span("x.y", t=0.0)
        tracer.end_span(span, t=1.0)
        with pytest.raises(ValueError, match="already ended"):
            tracer.end_span(span, t=2.0)

    def test_parenting_and_children(self):
        tracer = Tracer()
        root = tracer.start_span("a.root", t=0.0)
        child = tracer.start_span("a.child", parent=root, t=1.0)
        assert child.parent_id == root.span_id
        assert tracer.children(root) == [child]

    def test_events_carry_time_and_fields(self):
        tracer = Tracer()
        span = tracer.start_span("x.y", t=0.0)
        tracer.add_event(span, "retry", t=1.5, attempt=2)
        assert span.events[0].t == 1.5
        assert span.events[0].fields == {"attempt": 2}


class TestSerialization:
    def _small_trace(self):
        tracer = Tracer(name="t")
        tracer.meta["seed"] = 7
        root = tracer.start_span("d.root", t=0.0, zebra=1, apple=2)
        tracer.add_event(root, "evt", t=0.5, b=1, a=2)
        tracer.end_span(root, t=2.0)
        return tracer

    def test_format_version_and_span_count_serialized(self):
        doc = self._small_trace().to_dict()
        assert doc["format"] == TRACE_FORMAT_VERSION
        assert doc["n_spans"] == 1

    def test_json_is_deterministic_and_key_sorted(self):
        t1, t2 = self._small_trace(), self._small_trace()
        assert t1.to_json() == t2.to_json()
        tags = json.loads(t1.to_json())["spans"][0]["tags"]
        assert list(tags) == sorted(tags)

    def test_digest_changes_with_content(self):
        t1 = self._small_trace()
        t2 = self._small_trace()
        tracer3 = self._small_trace()
        tracer3.start_span("d.more", t=1.0)
        assert t1.digest() == t2.digest()
        assert t1.digest() != tracer3.digest()

    def test_non_scalar_tags_serialize_as_strings(self):
        tracer = Tracer()
        span = tracer.start_span("x.y", t=0.0, obj=[1, 2])
        tracer.end_span(span, t=1.0)
        assert tracer.to_dict()["spans"][0]["tags"]["obj"] == "[1, 2]"

    def test_summary_mentions_span_counts(self):
        text = self._small_trace().summary()
        assert "1 spans" in text
        assert "d.root: 1" in text
