// Annotation hooks for the o2k-lint static checks (tools/o2k-lint, DESIGN.md
// §12).  The macros are zero-cost at runtime: they exist so the lint engine
// (and, under Clang, the AST frontend via [[clang::annotate]]) can key on
// explicit author intent instead of guessing.
#pragma once

// Marks a function as safe to call between Machine::arm_checkpoint and the
// campaign fork: no thread creation, no hidden process-global state that a
// forked child would corrupt.  o2k-fork-unsafe verifies the promise (the
// annotated body must not create threads or call O2K_FORK_UNSAFE functions).
//
// Marks a function as never safe in that window; o2k-fork-unsafe flags any
// call to it from an arm_checkpoint callback.
#if defined(__clang__)
#define O2K_FORK_SAFE [[clang::annotate("o2k::fork_safe")]]
#define O2K_FORK_UNSAFE [[clang::annotate("o2k::fork_unsafe")]]
#else
#define O2K_FORK_SAFE
#define O2K_FORK_UNSAFE
#endif
