"""orchkit: a two-phase planner/executor toolkit for guideline-driven
classification over sensitive documents.

A high-capability cloud model plans (subtask decomposition, draft prompts,
synthetic validation cases, deterministic synthesis logic); a constrained
local model executes the validated prompts over real documents in an
isolated environment, with repeated inference, majority voting, and
rule-based outcome synthesis. The two phases meet only through a
checksummed artifact bundle carried across the air gap.
"""
