"""Compiler version presets (the paper's Fig. 1 toolchain study).

The paper shows that successive versions of Arm's OpenCL compiler produce
substantially different code for the same kernel (arithmetic cycles vary by
up to 47%, LS cycles by 43%, register use by 9%). Our presets model that by
toggling real passes:

=========== ======== =========== ========== ============= =========
version     unroll   dual_issue  vector_ls  temp_forward  copyprop
=========== ======== =========== ========== ============= =========
v5.6        1        no          no         no            no
v5.7        1        no          yes        no            yes
v6.0        8        no          yes        yes           yes
v6.1        8        yes         yes        yes           yes
v6.2        8        yes         yes        yes           yes
=========== ======== =========== ========== ============= =========

- *vector_ls* lowers vloadN/vstoreN to wide LD/ST (fewer LS instructions
  and beats), at the cost of register shuffling and contiguous-register
  pressure (the v5.7 register increase in Fig. 1);
- *dual_issue* hoists independent simple ops into empty ADD slots (fewer
  NOPs and tuples — the v6.1 arithmetic-cycle drop);
- *unroll* trades registers for fewer branches and longer clauses;
- *hoist_uniforms* (v6.x) loads each uniform slot once, in the entry
  block, not in every basic block that reads it; *dce* is always on.
"""

from dataclasses import dataclass

from repro.errors import CompileError

DEFAULT_VERSION = "6.2"


@dataclass(frozen=True)
class CompilerOptions:
    """Pass configuration; usually one of :data:`COMPILER_VERSIONS`."""

    version: str = DEFAULT_VERSION
    unroll_limit: int = 2
    dual_issue: bool = True
    vector_ls: bool = True
    temp_forward: bool = True
    copyprop: bool = True
    dce: bool = True
    hoist_uniforms: bool = True

    @staticmethod
    def from_version(version):
        """The preset named ``str(version)``."""
        try:
            return COMPILER_VERSIONS[str(version)]
        except KeyError:
            raise CompileError(
                f"unknown compiler version {version!r}") from None


COMPILER_VERSIONS = {
    "5.6": CompilerOptions("5.6", unroll_limit=1, dual_issue=False,
                           vector_ls=False, temp_forward=False,
                           copyprop=False, hoist_uniforms=False),
    "5.7": CompilerOptions("5.7", unroll_limit=1, dual_issue=False,
                           vector_ls=True, temp_forward=False,
                           copyprop=True, hoist_uniforms=False),
    "6.0": CompilerOptions("6.0", unroll_limit=8, dual_issue=False,
                           vector_ls=True, temp_forward=True, copyprop=True),
    "6.1": CompilerOptions("6.1", unroll_limit=8, dual_issue=True,
                           vector_ls=True, temp_forward=True, copyprop=True),
    "6.2": CompilerOptions("6.2", unroll_limit=8, dual_issue=True,
                           vector_ls=True, temp_forward=True, copyprop=True),
}
