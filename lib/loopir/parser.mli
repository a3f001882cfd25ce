(** Recursive-descent parser for the mini-Fortran loop language.

    Grammar (keywords case-insensitive):
    {v
    program := stmt* EOF
    stmt    := DO ident = expr , expr [, int] stmt* ENDDO
             | ident ( expr {, expr} ) = expr
    expr    := term { ("+" | "-") term }
    term    := factor { ("*" | "/") factor }
    factor  := atom [** int]
    atom    := INT | REAL | ident | ident ( args )
             | MIN ( args ) | MAX ( args ) | MOD ( expr , expr )
             | SQRT ( expr ) | ABS ( expr ) | ( expr ) | - atom | + atom
    v} *)

exception Error of string * int
(** Message and line number. *)

val parse : name:string -> string -> Ast.program
(** [parse ~name src] parses a program; symbolic parameters are inferred
    from the free identifiers.  A loop that reuses the index of an
    enclosing loop raises {!Error} at the line of its index. *)

val parse_expr : string -> Ast.expr
(** Parses a single expression (for tests and the CLI). *)
