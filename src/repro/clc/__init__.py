"""The vendor-style JIT compiler for GPU kernels.

A complete compilation pipeline for an OpenCL-C-like kernel language,
mirroring the role of Arm's OpenCL toolchain in the paper's software stack:

  preprocess -> lex -> parse -> sema -> lower to IR -> optimize ->
  clause scheduling (slot packing, temp forwarding) -> register
  allocation -> binary codegen

Different *compiler versions* (v5.6 .. v6.2, see
:mod:`repro.clc.versions`) toggle real optimisation passes and therefore
produce different code for the same kernel — the effect the paper
quantifies in Fig. 1.
"""

import importlib

#: each re-exported name -> the submodule that defines it, loaded on
#: first access: the version table does not cost a process the compiler
_EXPORTS = {
    "CompiledKernel": "compiler",
    "CompiledProgram": "compiler",
    "CompilerOptions": "versions",
    "compile_source": "compiler",
    "COMPILER_VERSIONS": "versions",
    "DEFAULT_VERSION": "versions",
}

__all__ = list(_EXPORTS)


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{_EXPORTS[name]}")
    return getattr(module, name)
