"""The compiled execution backend (``backend="compiled"``).

Generates one Python function per type-checked, instrumented mini-C
function body — variable slots, access sizes, and check-site
specializations resolved at compile time — and executes them under the
same scheduler/shadow-memory/RC/tracing machinery as the tree-walking
interpreter, bit-identically by seed and several times faster.  See
:mod:`repro.compile.codegen` for the code generator,
:mod:`repro.compile.closures` for whole-program compilation, and
:mod:`repro.compile.backend` for the executor.
"""

from repro.compile.backend import CompiledInterp
from repro.compile.closures import (
    CompiledProgram, ProgramCompiler, compile_program,
)
from repro.compile.codegen import (
    CompileError, CompiledFunction, FunctionCodegen,
)

__all__ = [
    "CompiledInterp", "CompileError", "CompiledFunction",
    "CompiledProgram", "FunctionCodegen", "ProgramCompiler",
    "compile_program",
]
