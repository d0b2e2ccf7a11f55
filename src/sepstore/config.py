"""Config files for the semantic tester.

Plain key=value lines, `#` comments.  Integer lists use commas; command and
assertion lists use `;;` as the separator because commands themselves
contain `;` and `,`.

    addrs = 1, 2, 3
    ints = -1, 0, 1, 2
    code = skip ;; free(-1)
    tag_max = 3
    k = 3
    worlds = emp
    frames = emp ;; true ;; 3 |-> 0
    fuel = 10000
    env_cap = 256
"""

from dataclasses import replace

from .grammar import ParseError, parse
from .semantics import TestConfig


class ConfigError(Exception):
    pass


DEFAULT_CODE = ("skip", "free(-1)")
DEFAULT_FRAMES = ("emp", "true", "3 |-> 0")


def default_config() -> TestConfig:
    """The default CLI universe: smallest one that exercises every entry
    of the counterexample registry.  The fields not set here are
    TestConfig's defaults."""
    return TestConfig(
        code_pool=tuple(parse(c, "program") for c in DEFAULT_CODE),
        frame_pool=tuple(parse(f, "assertion") for f in DEFAULT_FRAMES),
    )


def _ints(text, key):
    # a ValueError, so that load_config names the line
    try:
        return tuple(int(p.strip()) for p in text.split(",") if p.strip())
    except ValueError:
        raise ValueError(f"{key}: expected a comma-separated integer "
                         f"list, got {text!r}") from None


def _addrs(text):
    addrs = _ints(text, "addrs")
    for a in addrs:
        if a < 1:
            # a heap's addresses are positive (interp.Heap.of), so a
            # witness at this address could not be replayed from a heap file
            raise ValueError(f"addrs: expected positive addresses, got {a}")
    return addrs


def _nat(text, key, positive=False):
    n = int(text)
    if n < 0:
        raise ValueError(f"{key}: expected a non-negative integer, got {n}")
    if positive and n == 0:
        # k = 0 checks no step and env_cap = 0 samples no environment, so
        # every goal would pass
        raise ValueError(f"{key}: expected a positive integer, got 0")
    return n


def _parsed_list(text, kind, key):
    out = []
    for chunk in text.split(";;"):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            out.append(parse(chunk, kind))
        except ParseError as exc:
            raise ConfigError(f"{key}: {exc}") from exc
    return tuple(out)


def load_config(text: str) -> TestConfig:
    fields = {}
    handlers = {
        "addrs": lambda v: ("addr_pool", _addrs(v)),
        "ints": lambda v: ("int_pool", _ints(v, "ints")),
        "code": lambda v: ("code_pool", _parsed_list(v, "program", "code")),
        "tag_max": lambda v: ("tag_max", _nat(v, "tag_max")),
        "k": lambda v: ("level_k", _nat(v, "k", positive=True)),
        "worlds": lambda v: ("world_pool",
                             _parsed_list(v, "assertion", "worlds")),
        "frames": lambda v: ("frame_pool",
                             _parsed_list(v, "assertion", "frames")),
        "fuel": lambda v: ("fuel", _nat(v, "fuel")),
        "env_cap": lambda v: ("env_cap", _nat(v, "env_cap", positive=True)),
    }
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value")
        key, _, value = line.partition("=")
        key = key.strip()
        # `=` may also occur inside assertion values such as `x = 1`;
        # only split on the first one after a known key
        if key not in handlers:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        try:
            field, parsed = handlers[key](value.strip())
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: {exc}") from exc
        fields[field] = parsed
    return replace(default_config(), **fields)


def load_config_file(path) -> TestConfig:
    with open(path) as fh:
        return load_config(fh.read())
