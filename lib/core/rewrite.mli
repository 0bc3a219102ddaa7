(** Equivalence reduction by term rewriting (Section 5.5, Figs. 13-14).

    [reducible form] decides whether a partially evaluated program matches
    the left-hand side of any rewrite rule, anywhere in the term; such
    programs are redundant — a smaller or canonically ordered equivalent
    is enumerated separately — and the search prunes them.

    The rule set is the paper's Fig. 13 closed under the worklist's
    size-then-depth enumeration order:
    - idempotence and subset domination (Example 5.11) between operands of
      [Union]/[Intersect] — constants compare as sets, so these rules gain
      power after partial evaluation, which is the paper's key insight;
    - absorption [Union(A, Intersect(A, B)) ~> A] and its dual;
    - double complement;
    - commutativity, realised as a canonical-order check on operand lists;
    - associativity, realised by forbidding directly nested
      [Union]/[Intersect] (the flattened variadic form is smaller);
    - De Morgan laws and the two distribution rules.

    Holes are never considered equal to anything for rule-matching
    purposes, since their completions may differ. *)

val reducible : Peval.Form.t -> bool
