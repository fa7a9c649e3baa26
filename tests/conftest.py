"""Shared fixtures and trace-building helpers for the test suite."""

import pytest
from hypothesis import settings

from repro.isa.instruction import MicroOp
from repro.isa.opcodes import InstrClass
from repro.isa.trace import Trace
from repro.sim.config import MachineConfig, SchemeConfig, small_config
from repro.sim.processor import Processor
from repro.sim.setup_memo import SETUP_MEMO

# Property tests draw the same examples on every run, so a failure
# reproduces in any checkout and none is replayed from a local example
# database; each test keeps its own ``max_examples``.
settings.register_profile("repro", derandomize=True, database=None)
settings.load_profile("repro")


class TraceBuilder:
    """Fluent helper for hand-crafting traces in tests.

    Registers 28-31 are never written (always-ready base pointers), so
    ``srcs=(28,)`` means "ready at dispatch".
    """

    def __init__(self, name: str = "crafted", group: str = "INT"):
        self.trace = Trace(name, group=group)
        self._pc = 0x1000

    def _next_pc(self) -> int:
        pc = self._pc
        self._pc += 4
        return pc

    def alu(self, dst=1, srcs=(28,), cls=InstrClass.IALU):
        self.trace.append(MicroOp(self._next_pc(), cls, srcs=tuple(srcs), dst=dst))
        return self

    def load(self, addr, dst=2, srcs=(28,), size=8):
        self.trace.append(
            MicroOp(self._next_pc(), InstrClass.LOAD, srcs=tuple(srcs), dst=dst,
                    mem_addr=addr, mem_size=size)
        )
        return self

    def store(self, addr, srcs=(28,), data_src=29, size=8):
        self.trace.append(
            MicroOp(self._next_pc(), InstrClass.STORE, srcs=tuple(srcs),
                    mem_addr=addr, mem_size=size, data_src=data_src)
        )
        return self

    def branch(self, taken=False, srcs=(28,), pc=None):
        branch_pc = pc if pc is not None else self._next_pc()
        self.trace.append(
            MicroOp(branch_pc, InstrClass.BRANCH, srcs=tuple(srcs),
                    taken=taken, target=self._pc + 4)
        )
        return self

    def fill(self, n, dst_base=3):
        """Append n independent single-cycle ALU ops."""
        for i in range(n):
            self.alu(dst=dst_base + (i % 8))
        return self

    def build(self) -> Trace:
        return self.trace


@pytest.fixture(autouse=True)
def _isolated_result_cache(tmp_path, monkeypatch):
    """Point the execution engine's disk cache at a per-test directory.

    Keeps tests from reading or polluting ``~/.cache/repro``, and makes
    every test start from a cold cache.
    """
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "repro-cache"))


@pytest.fixture
def cold_memo():
    """An empty process-wide setup memo around the test, so no trace,
    warm front end or host run an earlier test left serves its points."""
    SETUP_MEMO.clear()
    yield
    SETUP_MEMO.clear()


@pytest.fixture
def runs(monkeypatch):
    """Every ``Processor.run`` as (scheme label, kernel used), in order."""
    seen = []
    original = Processor.run

    def spy(processor, *args, **kwargs):
        result = original(processor, *args, **kwargs)
        seen.append((processor.config.scheme.label(), processor.kernel_used))
        return result

    monkeypatch.setattr(Processor, "run", spy)
    return seen


@pytest.fixture
def builder():
    return TraceBuilder()


@pytest.fixture
def tiny_config() -> MachineConfig:
    """Small machine with wrong-path modelling off (deterministic tests)."""
    return small_config(wrongpath_loads=False)


@pytest.fixture
def dmdc_config(tiny_config) -> MachineConfig:
    return tiny_config.with_scheme(SchemeConfig(kind="dmdc"))
