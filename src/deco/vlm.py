"""Chat-completions client used when planning is delegated to an external model.

The endpoint, credentials and model name come from the ``DECO_VLM_ENDPOINT``,
``DECO_VLM_API_KEY`` and ``DECO_VLM_MODEL`` environment variables.  Responses
are expected to contain a JSON array of library instructions; surrounding
prose is tolerated, hallucinated skills are not.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from importlib import resources

from .errors import HallucinatedStep, ParseError, TransportError
from .planning import SceneSummary
from .trajectory import InstructionLibrary

ENDPOINT_ENV = "DECO_VLM_ENDPOINT"
API_KEY_ENV = "DECO_VLM_API_KEY"
MODEL_ENV = "DECO_VLM_MODEL"


@dataclass
class EndpointConfig:
    url: str
    api_key: str = ""
    model: str = "gpt-4o"
    timeout: float = 30.0
    audit_log: str | None = None

    @classmethod
    def from_env(cls, audit_log: str | None = None) -> "EndpointConfig":
        url = os.environ.get(ENDPOINT_ENV, "")
        if not url:
            raise TransportError(f"{ENDPOINT_ENV} is not set")
        return cls(url=url,
                   api_key=os.environ.get(API_KEY_ENV, ""),
                   model=os.environ.get(MODEL_ENV, "gpt-4o"),
                   audit_log=audit_log)


def prompt_template() -> str:
    return resources.files("deco.assets").joinpath("vlm_prompt.txt").read_text()


def build_prompt(instruction: str, scene: SceneSummary, library: InstructionLibrary) -> str:
    return prompt_template().format(
        instruction=instruction,
        scene=json.dumps(scene.to_dict(), indent=2),
        library=json.dumps(list(library.counts), indent=2))


def extract_json_array(text: str) -> list:
    """First top-level JSON array in the text; chat models wrap JSON in prose."""
    decoder = json.JSONDecoder()
    start = text.find("[")
    while start != -1:
        try:
            value, _ = decoder.raw_decode(text, start)
        except ValueError:
            start = text.find("[", start + 1)
            continue
        except RecursionError:
            raise ParseError("response nests JSON too deeply to parse") from None
        if isinstance(value, list):
            return value
        start = text.find("[", start + 1)
    raise ParseError("no JSON array found in response")


def _response_text(body: str) -> str:
    """The first choice's message content of a chat-completions body; any
    other body, JSON or not, is searched as it is."""
    try:
        data = json.loads(body)
    except (ValueError, RecursionError):
        return body
    if isinstance(data, dict):
        choices = data.get("choices")
        if isinstance(choices, list) and choices and isinstance(choices[0], dict):
            message = choices[0].get("message")
            if isinstance(message, dict) and isinstance(message.get("content"), str):
                return message["content"]
    return body


def parse_plan_response(body: str, library: InstructionLibrary) -> tuple[str, ...]:
    steps = extract_json_array(_response_text(body))
    if not steps:
        raise ParseError("planner returned an empty array")
    if not all(isinstance(s, str) for s in steps):
        raise ParseError(f"planner array must contain only strings: {steps!r}")
    for step in steps:
        if step not in library:
            raise HallucinatedStep(step)
    return tuple(steps)


def _audit(path: str | None, record: dict):
    if path:
        with open(path, "a") as fh:
            fh.write(json.dumps(record) + "\n")


def _post(config: EndpointConfig, payload: dict) -> str:
    # imported here: no episode posts a request, and the HTTP stack is large
    import requests

    headers = {"Content-Type": "application/json"}
    if config.api_key:
        headers["Authorization"] = f"Bearer {config.api_key}"
    try:
        response = requests.post(config.url, json=payload, headers=headers,
                                 timeout=config.timeout)
    except requests.RequestException as exc:
        raise TransportError(f"request to {config.url} failed: {exc}") from exc
    if response.status_code != 200:
        raise TransportError(f"endpoint returned HTTP {response.status_code}")
    return response.text


def plan_vlm(instruction: str, scene: SceneSummary, library: InstructionLibrary,
             config: EndpointConfig) -> tuple[str, ...]:
    """One planning request; a single retry on transport failure only."""
    if len(library) == 0:
        raise ParseError("instruction library is empty")
    payload = {"model": config.model,
               "messages": [{"role": "user",
                             "content": build_prompt(instruction, scene, library)}]}
    attempts = 0
    while True:
        attempts += 1
        try:
            body = _post(config, payload)
            break
        except TransportError as exc:
            _audit(config.audit_log, {"ts": time.time(), "request": payload,
                                      "error": str(exc)})
            if attempts >= 2:
                raise
    _audit(config.audit_log, {"ts": time.time(), "request": payload, "response": body})
    return parse_plan_response(body, library)
