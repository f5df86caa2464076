import os
import subprocess
import sys

import pytest

_SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")


def _fresh_python(*argv, code=None, flags=(), env=None, timeout=60):
    """delbound.cli, or the script code, run with argv in a fresh
    interpreter on this checkout's sources, under the interpreter flags
    and the environment variables env adds; stdout and stderr captured."""
    env = dict(os.environ, **(env or {}))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))
    cmd = ["-m", "delbound.cli"] if code is None else ["-c", code]
    return subprocess.run([sys.executable, *flags, *cmd, *argv], env=env, capture_output=True,
                          text=True, timeout=timeout)


def _clear_caches():
    """cache_clear() on every lru_cache of the package."""
    for name, module in list(sys.modules.items()):
        if name.startswith("delbound"):
            for value in list(vars(module).values()):
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


@pytest.fixture
def fresh_python():
    """The runner of a command or script in a fresh interpreter: the one
    place where a test leaves the pytest process, for import checks and
    interpreter flags."""
    return _fresh_python


@pytest.fixture
def clear_caches():
    return _clear_caches
