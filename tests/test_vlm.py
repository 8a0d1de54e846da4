import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
import requests
from hypothesis import example, given, settings
from hypothesis import strategies as st

import deco
from deco.errors import DecoError, HallucinatedStep, ParseError, TransportError
from deco.executor import build_library
from deco.planning import SceneSummary
from deco.registry import load_registry
from deco.vlm import (EndpointConfig, build_prompt, extract_json_array,
                      parse_plan_response, plan_vlm)


@pytest.fixture(scope="module")
def library():
    return build_library(load_registry())[2]


def chat_body(content):
    return json.dumps({"choices": [{"message": {"content": content}}]})


def test_importing_deco_leaves_the_http_stack_unloaded():
    """``requests`` is imported where a request is posted, not with the package."""
    src = str(Path(deco.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
    code = "import sys, deco, deco.cli; print('requests' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


def test_from_env_requires_endpoint(monkeypatch):
    monkeypatch.delenv("DECO_VLM_ENDPOINT", raising=False)
    with pytest.raises(TransportError):
        EndpointConfig.from_env()


def test_from_env_reads_variables(monkeypatch):
    monkeypatch.setenv("DECO_VLM_ENDPOINT", "http://example.test/v1/chat")
    monkeypatch.setenv("DECO_VLM_API_KEY", "sekrit")
    monkeypatch.setenv("DECO_VLM_MODEL", "some-model")
    cfg = EndpointConfig.from_env()
    assert cfg.url == "http://example.test/v1/chat"
    assert cfg.api_key == "sekrit"
    assert cfg.model == "some-model"


def test_build_prompt_mentions_everything(library):
    prompt = build_prompt("tidy the desk", SceneSummary(), library)
    assert "tidy the desk" in prompt
    assert "open drawer" in prompt
    assert "drawer_open_fraction" in prompt


def test_extract_json_array_with_prose():
    text = 'Sure! Here is the plan:\n["open drawer", "close drawer"]\nEnjoy.'
    assert extract_json_array(text) == ["open drawer", "close drawer"]


def test_extract_json_array_skips_non_arrays():
    text = '{"a": [1, 2]} then the real answer ["x"]'
    assert extract_json_array(text) == [1, 2] or extract_json_array(text) == ["x"]


def test_extract_json_array_none_found():
    with pytest.raises(ParseError):
        extract_json_array("no brackets here")


def test_parse_rejects_empty_array(library):
    with pytest.raises(ParseError):
        parse_plan_response("[]", library)


def test_parse_rejects_non_string_entries(library):
    with pytest.raises(ParseError):
        parse_plan_response('[1, 2, 3]', library)


def test_parse_rejects_hallucinated_step(library):
    with pytest.raises(HallucinatedStep) as info:
        parse_plan_response('["open drawer", "levitate the desk"]', library)
    assert "levitate the desk" in str(info.value)


def test_parse_accepts_chat_wrapped_plan(library):
    body = chat_body('The plan:\n["open drawer", "put item in drawer"]')
    plan = parse_plan_response(body, library)
    assert plan == ("open drawer", "put item in drawer")


FIXTURE_BAD_RESPONSES = [
    ("[]", ParseError),
    ('["not a skill"]', HallucinatedStep),
    ('[42]', ParseError),
    ('plain prose without json', ParseError),
    (chat_body("I cannot help with that."), ParseError),
    (chat_body('["open drawer", "summon the robot overlord"]'), HallucinatedStep),
    ('{"steps": "open drawer"}', ParseError),
    (chat_body('[["nested"]]'), ParseError),
]


def test_parse_rejects_all_bad_fixtures(library):
    for body, err in FIXTURE_BAD_RESPONSES:
        with pytest.raises(err):
            parse_plan_response(body, library)


# JSON values whose strings are sometimes library skills, so that some bodies parse
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
    | st.text(max_size=8) | st.sampled_from(["open drawer", "close drawer"]),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner,
                                                                max_size=4),
    max_leaves=12)
_BODIES = st.one_of(
    _JSON,
    _JSON.map(lambda v: {"choices": v}),
    _JSON.map(lambda v: {"choices": [v]}),
    _JSON.map(lambda v: {"choices": [{"message": v}]}),
    _JSON.map(lambda v: {"choices": [{"message": {"content": v}}]}),
    _JSON.map(lambda v: {"choices": [{"message": {"content": json.dumps(v)}}]}),
).map(json.dumps)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(body=_BODIES)
@example(body='{"choices": ["x"]}')
@example(body='{"choices": [{"message": "hi"}]}')
@example(body="[" + "1" * 5000 + "]")
@example(body="[" * 100_000)
def test_parse_returns_a_plan_or_raises_a_deco_error(library, body):
    try:
        plan = parse_plan_response(body, library)
    except DecoError:
        return
    assert plan and all(step in library for step in plan)


class FakeResponse:
    def __init__(self, status_code, text):
        self.status_code = status_code
        self.text = text


def test_plan_vlm_posts_and_parses(monkeypatch, library):
    captured = {}

    def fake_post(url, json=None, headers=None, timeout=None):
        captured.update(url=url, payload=json, headers=headers)
        return FakeResponse(200, chat_body('["open drawer"]'))

    monkeypatch.setattr(requests, "post", fake_post)
    cfg = EndpointConfig(url="http://example.test/v1", api_key="tok", model="m1")
    plan = plan_vlm("open the drawer", SceneSummary(drawer_open_fraction=0.0),
                    library, cfg)
    assert plan == ("open drawer",)
    assert captured["url"] == "http://example.test/v1"
    assert captured["payload"]["model"] == "m1"
    assert captured["headers"]["Authorization"] == "Bearer tok"
    assert captured["payload"]["messages"][0]["role"] == "user"


def test_plan_vlm_retries_transport_once(monkeypatch, library, tmp_path):
    calls = []

    def flaky_post(url, **kwargs):
        calls.append(url)
        if len(calls) == 1:
            raise requests.ConnectionError("boom")
        return FakeResponse(200, chat_body('["open drawer"]'))

    monkeypatch.setattr(requests, "post", flaky_post)
    audit = tmp_path / "audit.jsonl"
    cfg = EndpointConfig(url="http://example.test/v1", audit_log=str(audit))
    plan = plan_vlm("open the drawer", SceneSummary(), library, cfg)
    assert plan == ("open drawer",)
    assert len(calls) == 2
    records = [json.loads(line) for line in audit.read_text().splitlines()]
    assert any("error" in r for r in records)
    assert any("response" in r for r in records)


def test_plan_vlm_gives_up_after_second_failure(monkeypatch, library):
    def dead_post(url, **kwargs):
        raise requests.ConnectionError("down")

    monkeypatch.setattr(requests, "post", dead_post)
    cfg = EndpointConfig(url="http://example.test/v1")
    with pytest.raises(TransportError):
        plan_vlm("open the drawer", SceneSummary(), library, cfg)


def test_plan_vlm_no_retry_on_parse_error(monkeypatch, library):
    calls = []

    def bad_post(url, **kwargs):
        calls.append(url)
        return FakeResponse(200, "garbage")

    monkeypatch.setattr(requests, "post", bad_post)
    cfg = EndpointConfig(url="http://example.test/v1")
    with pytest.raises(ParseError):
        plan_vlm("open the drawer", SceneSummary(), library, cfg)
    assert len(calls) == 1


def test_plan_vlm_http_error_is_transport(monkeypatch, library):
    monkeypatch.setattr(requests, "post",
                        lambda url, **kw: FakeResponse(500, "oops"))
    cfg = EndpointConfig(url="http://example.test/v1")
    with pytest.raises(TransportError):
        plan_vlm("open the drawer", SceneSummary(), library, cfg)


def test_plan_vlm_empty_library(monkeypatch):
    from deco.trajectory import InstructionLibrary
    cfg = EndpointConfig(url="http://example.test/v1")
    with pytest.raises(ParseError):
        plan_vlm("open the drawer", SceneSummary(), InstructionLibrary(), cfg)
