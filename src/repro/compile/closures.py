"""Whole-program compilation for the compiled backend.

:class:`ProgramCompiler` hands every defined function to the one compile
tier, :class:`~repro.compile.codegen.FunctionCodegen`; a function it
refuses is recorded in :attr:`CompiledProgram.failed` and runs under the
inherited tree-walker (:class:`repro.compile.backend.CompiledInterp`),
which is bit-identical by construction, just slower.

The module name no longer describes its contents; it stays because
``repro.compile.closures.compile_program`` is an entry point that other
code imports and instruments by that name: the campaign workers, and
``perfbench``'s compile spans, which also read ``CompiledFunction.tier``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.sharc.checker import CheckedProgram
from repro.compile.codegen import CompiledFunction, FunctionCodegen


@dataclass
class CompiledProgram:
    funcs: dict[str, CompiledFunction] = field(default_factory=dict)
    #: function name -> reason, for bodies that fell back to the
    #: tree-walker (bit-identical by construction, just slower)
    failed: dict[str, str] = field(default_factory=dict)


class ProgramCompiler:
    def __init__(self, checked: CheckedProgram) -> None:
        self.checked = checked
        self.program = checked.program
        self.structs = self.program.structs
        self.functions = {f.name: f
                          for f in self.program.functions()}
        self.global_names = {g.name for g in self.program.globals()
                             if g.storage != "extern"}

    def compile(self) -> CompiledProgram:
        """Generates every defined function; one that codegen refuses is
        recorded in ``failed`` and left to the tree-walker."""
        cp = CompiledProgram()
        #: exposed while compiling so codegen call sites can bind the
        #: (eventually fully populated) dict for direct-call dispatch
        self.funcs_out = cp.funcs
        for name, func in self.functions.items():
            if func.body is None:
                continue
            try:
                cp.funcs[name] = FunctionCodegen(self, func).compile()
            except Exception as exc:
                cp.failed[name] = f"codegen: {type(exc).__name__}: {exc}"
        return cp


def compile_program(checked: CheckedProgram) -> CompiledProgram:
    """Compiles (and caches, per program object) every function body.
    The artifact is execution-state-free — generated code captures only
    static facts — so one compile serves every seed/policy/ablation run
    of the program, including ``sharc explore``'s per-process check
    cache."""
    cached = getattr(checked.program, "_sharc_compiled", None)
    if cached is not None:
        return cached
    cp = ProgramCompiler(checked).compile()
    checked.program._sharc_compiled = cp  # type: ignore[attr-defined]
    return cp
