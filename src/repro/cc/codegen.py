"""TinyC code generator: AST -> AVR assembly (our assembler's dialect).

Conventions (mirroring avr-gcc closely enough to exercise the same
SenSmart code paths):

* all values are u16 at runtime (u8 zero-extended on load, truncated on
  store); the accumulator is r25:r24;
* locals and parameters live in a stack frame addressed through Y
  (r28:r29, callee-saved); the prologue reads SP, lowers it by the
  frame size, and writes it back — exercising SenSmart's SP get/set
  virtualization exactly like compiled C does;
* parameters arrive in r25:r24, r23:r22, r21:r20, r19:r18; the return
  value leaves in r25:r24;
* expression temporaries are spilled to the hardware stack around
  binary operators, so arbitrarily deep expressions are correct (if not
  optimal) and every spill exercises the checked PUSH/POP path;
* SP byte-write ordering is chosen so the intermediate value always
  stays inside the logical stack zone (low byte first when lowering,
  high byte first when raising).

Division and modulo call a 16-bit restoring-division helper (emitted on
demand, like ``__mul16``); division by zero yields 0 quotient with the
dividend's shifted-out remainder (deterministic, documented).
Unsupported on purpose: pointers, nested arrays.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..avr import ioports
from .astnodes import (Assign, Binary, Break, Call, Continue, Declare,
                       DoWhile, Expr, ExprStmt, For, Function, GlobalVar,
                       If, Index, Number, Program, Return, Stmt, Unary,
                       Var, While)
from .lexer import CompileError

#: Parameter register pairs (low, high), first parameter first.
PARAM_REGS = [(24, 25), (22, 23), (20, 21), (18, 19)]

INTRINSICS = {"halt", "sleep", "io_read", "io_write", "settimer"}

MAX_SLOTS = 31  # LDD displacement limit: slot i lives at Y+1+2i


class _FunctionContext:
    def __init__(self, function: Function):
        self.function = function
        self.slots: Dict[str, int] = {}
        self.types: Dict[str, str] = {}
        for param in function.params:
            self._add(param.name, param.type_name, function.line)

    def _add(self, name: str, type_name: str, line: int) -> int:
        if name in self.slots:
            raise CompileError(f"duplicate local {name!r}", line)
        if len(self.slots) >= MAX_SLOTS:
            raise CompileError("too many locals", line)
        self.slots[name] = len(self.slots)
        self.types[name] = type_name
        return self.slots[name]

    def declare(self, statement: Declare) -> int:
        return self._add(statement.name, statement.type_name,
                         statement.line)

    @property
    def frame_bytes(self) -> int:
        return 2 * len(self.slots)

    def offset(self, name: str) -> int:
        return 1 + 2 * self.slots[name]


class CodeGenerator:
    def __init__(self, program: Program):
        self.program = program
        self.globals: Dict[str, GlobalVar] = {
            g.name: g for g in program.globals}
        self.functions: Dict[str, Function] = {
            f.name: f for f in program.functions}
        self.lines: List[str] = []
        self._label_counter = 0
        self._needs_mul16 = False
        self._needs_div16 = False
        self._loop_stack: List[Tuple[str, str]] = []  # (continue, break)

    # -- helpers ------------------------------------------------------------------

    def emit(self, text: str) -> None:
        self.lines.append(text)

    def op(self, text: str) -> None:
        self.lines.append("    " + text)

    def label(self, stem: str) -> str:
        self._label_counter += 1
        return f"L{self._label_counter}_{stem}"

    # -- top level -----------------------------------------------------------------

    def generate(self) -> str:
        if "main" not in self.functions:
            raise CompileError("no main() function")
        for global_var in self.program.globals:
            self.emit(f".bss g_{global_var.name}, "
                      f"{global_var.size_bytes}")
        # main first so the entry convention holds.
        ordered = [self.functions["main"]] + [
            f for f in self.program.functions if f.name != "main"]
        for function in ordered:
            self._function(function)
        if self._needs_mul16:
            self._emit_mul16()
        if self._needs_div16:
            self._emit_div16()
        return "\n".join(self.lines) + "\n"

    def _function(self, function: Function) -> None:
        # Pre-scan declarations so the frame size is known up front.
        context = _FunctionContext(function)
        self._collect_declarations(function.body, context)
        self.emit(f"{function.name}:")
        is_main = function.name == "main"
        frame = context.frame_bytes
        if frame > 0 or not is_main:
            self.op("push r28")
            self.op("push r29")
            self.op(f"in r28, {ioports.SPL - 0x20:#04x}")
            self.op(f"in r29, {ioports.SPH - 0x20:#04x}")
            if frame:
                self.op(f"sbiw r28, {frame}")
                # Lowering SP: low byte first keeps the intermediate
                # inside the stack zone.
                self.op(f"out {ioports.SPL - 0x20:#04x}, r28")
                self.op(f"out {ioports.SPH - 0x20:#04x}, r29")
        # Spill incoming parameters into their frame slots.
        for param, (lo, hi) in zip(function.params, PARAM_REGS):
            offset = context.offset(param.name)
            self.op(f"std Y+{offset}, r{lo}")
            self.op(f"std Y+{offset + 1}, r{hi}")
        epilogue = f"{function.name}_epilogue"
        self._context = context
        self._epilogue_label = epilogue
        if is_main:
            self._emit_global_initializers()
        for statement in function.body:
            self._statement(statement)
        self.emit(f"{epilogue}:")
        if is_main:
            self.op("break")
            return
        if frame:
            self.op(f"adiw r28, {frame}")
            # Raising SP: high byte first (see module docstring).
            self.op(f"out {ioports.SPH - 0x20:#04x}, r29")
            self.op(f"out {ioports.SPL - 0x20:#04x}, r28")
        self.op("pop r29")
        self.op("pop r28")
        self.op("ret")

    def _emit_global_initializers(self) -> None:
        for global_var in self.program.globals:
            if getattr(global_var, "init", None) is None:
                continue
            value = global_var.init & 0xFFFF
            self.op(f"ldi r24, {value & 0xFF}")
            self.op(f"sts g_{global_var.name}, r24")
            if global_var.element_bytes == 2:
                self.op(f"ldi r24, {value >> 8}")
                self.op(f"sts g_{global_var.name} + 1, r24")

    def _collect_declarations(self, body: List[Stmt],
                              context: _FunctionContext) -> None:
        for statement in body:
            if isinstance(statement, Declare):
                context.declare(statement)
            elif isinstance(statement, If):
                self._collect_declarations(statement.then_body, context)
                self._collect_declarations(statement.else_body, context)
            elif isinstance(statement, (While, DoWhile)):
                self._collect_declarations(statement.body, context)
            elif isinstance(statement, For):
                if isinstance(statement.init, Declare):
                    context.declare(statement.init)
                self._collect_declarations(statement.body, context)

    # -- statements -------------------------------------------------------------------

    def _statement(self, statement: Stmt) -> None:
        if isinstance(statement, Declare):
            if statement.init is not None:
                self._expression(statement.init)
                self._store_local(statement.name, statement.line)
            return
        if isinstance(statement, Assign):
            self._assign(statement)
            return
        if isinstance(statement, If):
            self._if(statement)
            return
        if isinstance(statement, While):
            self._while(statement)
            return
        if isinstance(statement, For):
            self._for(statement)
            return
        if isinstance(statement, DoWhile):
            self._do_while(statement)
            return
        if isinstance(statement, Break):
            if not self._loop_stack:
                raise CompileError("break outside a loop", statement.line)
            self.op(f"rjmp {self._loop_stack[-1][1]}")
            return
        if isinstance(statement, Continue):
            if not self._loop_stack:
                raise CompileError("continue outside a loop",
                                   statement.line)
            self.op(f"rjmp {self._loop_stack[-1][0]}")
            return
        if isinstance(statement, Return):
            if statement.value is not None:
                self._expression(statement.value)
            self.op(f"rjmp {self._epilogue_label}")
            return
        if isinstance(statement, ExprStmt):
            self._expression(statement.expr)
            return
        raise CompileError(f"unhandled statement {statement!r}")

    def _assign(self, statement: Assign) -> None:
        target = statement.target
        if isinstance(target, Var):
            self._expression(statement.value)
            self._store_named(target.name, statement.line)
            return
        # Array element: compute the address, save it, then the value.
        self._element_address(target)
        self.op("push r26")
        self.op("push r27")
        self._expression(statement.value)
        self.op("pop r27")
        self.op("pop r26")
        element = self.globals[target.name]
        self.op("st X+, r24")
        if element.element_bytes == 2:
            self.op("st X, r25")

    def _store_named(self, name: str, line: int) -> None:
        context = self._context
        if name in context.slots:
            self._store_local(name, line)
            return
        if name in self.globals:
            global_var = self.globals[name]
            if global_var.array_length is not None:
                raise CompileError(
                    f"cannot assign whole array {name!r}", line)
            self.op(f"sts g_{name}, r24")
            if global_var.element_bytes == 2:
                self.op(f"sts g_{name} + 1, r25")
            return
        raise CompileError(f"unknown variable {name!r}", line)

    def _store_local(self, name: str, line: int) -> None:
        offset = self._context.offset(name)
        self.op(f"std Y+{offset}, r24")
        if self._context.types[name] == "u16":
            self.op(f"std Y+{offset + 1}, r25")
        else:
            # u8 slots still occupy 2 bytes; keep the extension honest.
            self.op("ldi r25, 0")
            self.op(f"std Y+{offset + 1}, r25")

    def _if(self, statement: If) -> None:
        else_label = self.label("else")
        end_label = self.label("endif")
        self._condition_jump_false(statement.condition, else_label)
        for inner in statement.then_body:
            self._statement(inner)
        if statement.else_body:
            self.op(f"rjmp {end_label}")
        self.emit(f"{else_label}:")
        for inner in statement.else_body:
            self._statement(inner)
        if statement.else_body:
            self.emit(f"{end_label}:")

    def _while(self, statement: While) -> None:
        top = self.label("while")
        end = self.label("endwhile")
        self.emit(f"{top}:")
        self._condition_jump_false(statement.condition, end)
        self._loop_stack.append((top, end))
        for inner in statement.body:
            self._statement(inner)
        self._loop_stack.pop()
        self.op(f"rjmp {top}")
        self.emit(f"{end}:")

    def _for(self, statement: For) -> None:
        if statement.init is not None:
            self._statement(statement.init)
        top = self.label("for")
        step_label = self.label("forstep")
        end = self.label("endfor")
        self.emit(f"{top}:")
        if statement.condition is not None:
            self._condition_jump_false(statement.condition, end)
        self._loop_stack.append((step_label, end))
        for inner in statement.body:
            self._statement(inner)
        self._loop_stack.pop()
        self.emit(f"{step_label}:")
        if statement.step is not None:
            self._statement(statement.step)
        self.op(f"rjmp {top}")
        self.emit(f"{end}:")

    def _do_while(self, statement: DoWhile) -> None:
        top = self.label("do")
        check = self.label("docheck")
        end = self.label("enddo")
        self.emit(f"{top}:")
        self._loop_stack.append((check, end))
        for inner in statement.body:
            self._statement(inner)
        self._loop_stack.pop()
        self.emit(f"{check}:")
        self._condition_jump_false(statement.condition, end)
        self.op(f"rjmp {top}")
        self.emit(f"{end}:")

    def _condition_jump_false(self, condition: Expr, target: str) -> None:
        """Evaluate *condition*; jump to *target* when it is zero.

        The jump may exceed the conditional-branch range for large
        bodies, so a short skip + RJMP shape is emitted.
        """
        self._expression(condition)
        keep_going = self.label("true")
        self.op("mov r0, r24")
        self.op("or r0, r25")
        self.op(f"brne {keep_going}")
        self.op(f"rjmp {target}")
        self.emit(f"{keep_going}:")

    # -- expressions --------------------------------------------------------------------

    def _expression(self, expr: Expr) -> None:
        """Evaluate *expr* into r25:r24."""
        if isinstance(expr, Number):
            value = expr.value & 0xFFFF
            self.op(f"ldi r24, {value & 0xFF}")
            self.op(f"ldi r25, {value >> 8}")
            return
        if isinstance(expr, Var):
            self._load_named(expr.name, expr.line)
            return
        if isinstance(expr, Index):
            self._element_address(expr)
            element = self.globals[expr.name]
            self.op("ld r24, X+")
            if element.element_bytes == 2:
                self.op("ld r25, X")
            else:
                self.op("ldi r25, 0")
            return
        if isinstance(expr, Unary):
            self._unary(expr)
            return
        if isinstance(expr, Binary):
            self._binary(expr)
            return
        if isinstance(expr, Call):
            self._call(expr)
            return
        raise CompileError(f"unhandled expression {expr!r}")

    def _load_named(self, name: str, line: int) -> None:
        context = self._context
        if name in context.slots:
            offset = context.offset(name)
            self.op(f"ldd r24, Y+{offset}")
            self.op(f"ldd r25, Y+{offset + 1}")
            return
        if name in self.globals:
            global_var = self.globals[name]
            if global_var.array_length is not None:
                raise CompileError(
                    f"array {name!r} needs an index", line)
            self.op(f"lds r24, g_{name}")
            if global_var.element_bytes == 2:
                self.op(f"lds r25, g_{name} + 1")
            else:
                self.op("ldi r25, 0")
            return
        raise CompileError(f"unknown variable {name!r}", line)

    def _element_address(self, expr: Index) -> None:
        """Leave the element's data address in X (r27:r26)."""
        global_var = self.globals.get(expr.name)
        if global_var is None or global_var.array_length is None:
            raise CompileError(f"{expr.name!r} is not an array",
                               expr.line)
        self._expression(expr.index)
        if global_var.element_bytes == 2:
            self.op("lsl r24")
            self.op("rol r25")
        self.op(f"ldi r26, lo8(g_{expr.name})")
        self.op(f"ldi r27, hi8(g_{expr.name})")
        self.op("add r26, r24")
        self.op("adc r27, r25")

    def _unary(self, expr: Unary) -> None:
        self._expression(expr.operand)
        if expr.op == "-":
            self.op("clr r22")
            self.op("clr r23")
            self.op("sub r22, r24")
            self.op("sbc r23, r25")
            self.op("movw r24, r22")
        elif expr.op == "~":
            self.op("com r24")
            self.op("com r25")
        elif expr.op == "!":
            done = self.label("notz")
            self.op("mov r0, r24")
            self.op("or r0, r25")
            self.op("ldi r24, 1")
            self.op("ldi r25, 0")
            self.op(f"breq {done}")
            self.op("ldi r24, 0")
            self.emit(f"{done}:")
        else:  # pragma: no cover
            raise CompileError(f"unhandled unary {expr.op!r}", expr.line)

    def _binary(self, expr: Binary) -> None:
        # left -> stack, right -> r25:r24, left -> r23:r22.
        self._expression(expr.left)
        self.op("push r24")
        self.op("push r25")
        self._expression(expr.right)
        self.op("pop r23")
        self.op("pop r22")
        op = expr.op
        if op == "+":
            self.op("add r22, r24")
            self.op("adc r23, r25")
            self.op("movw r24, r22")
        elif op == "-":
            self.op("sub r22, r24")
            self.op("sbc r23, r25")
            self.op("movw r24, r22")
        elif op == "*":
            self._needs_mul16 = True
            self.op("call __mul16")
        elif op == "/":
            self._needs_div16 = True
            self.op("call __div16")
        elif op == "%":
            self._needs_div16 = True
            self.op("call __div16")
            self.op("movw r24, r18")  # remainder
        elif op == "&":
            self.op("and r24, r22")
            self.op("and r25, r23")
        elif op == "|":
            self.op("or r24, r22")
            self.op("or r25, r23")
        elif op == "^":
            self.op("eor r24, r22")
            self.op("eor r25, r23")
        elif op in ("<<", ">>"):
            self._shift(op)
        elif op in ("==", "!=", "<", "<=", ">", ">="):
            self._comparison(op)
        elif op in ("&&", "||"):
            self._logical(op)
        else:  # pragma: no cover
            raise CompileError(f"unhandled operator {op!r}", expr.line)

    def _shift(self, op: str) -> None:
        loop = self.label("shift")
        done = self.label("shiftdone")
        self.op("mov r20, r24")      # shift count (low byte)
        self.op("movw r24, r22")     # value
        self.emit(f"{loop}:")
        self.op("tst r20")
        self.op(f"breq {done}")
        if op == "<<":
            self.op("lsl r24")
            self.op("rol r25")
        else:
            self.op("lsr r25")
            self.op("ror r24")
        self.op("dec r20")
        self.op(f"rjmp {loop}")
        self.emit(f"{done}:")

    def _comparison(self, op: str) -> None:
        """left in r23:r22, right in r25:r24 -> boolean in r25:r24."""
        done = self.label("cmp")
        if op in ("==", "!=", "<", ">="):
            self.op("cp r22, r24")
            self.op("cpc r23, r25")
            branch = {"==": "breq", "!=": "brne", "<": "brlo",
                      ">=": "brsh"}[op]
        else:  # ">" and "<=": compare the other way around
            self.op("cp r24, r22")
            self.op("cpc r25, r23")
            branch = {"<=": "brsh", ">": "brlo"}[op]
        self.op("ldi r24, 1")
        self.op("ldi r25, 0")
        self.op(f"{branch} {done}")
        self.op("ldi r24, 0")
        self.emit(f"{done}:")

    def _logical(self, op: str) -> None:
        """Non-short-circuit && and || over already-evaluated operands."""
        left_bool = self.label("lbool")
        right_bool = self.label("rbool")
        # left (r23:r22) -> 0/1 in r22
        self.op("mov r0, r22")
        self.op("or r0, r23")
        self.op("ldi r22, 1")
        self.op(f"brne {left_bool}")
        self.op("ldi r22, 0")
        self.emit(f"{left_bool}:")
        # right (r25:r24) -> 0/1 in r24
        self.op("mov r0, r24")
        self.op("or r0, r25")
        self.op("ldi r24, 1")
        self.op(f"brne {right_bool}")
        self.op("ldi r24, 0")
        self.emit(f"{right_bool}:")
        self.op("and r24, r22" if op == "&&" else "or r24, r22")
        self.op("ldi r25, 0")

    # -- calls ---------------------------------------------------------------------------

    def _call(self, expr: Call) -> None:
        if expr.name in INTRINSICS:
            self._intrinsic(expr)
            return
        function = self.functions.get(expr.name)
        if function is None:
            raise CompileError(f"unknown function {expr.name!r}",
                               expr.line)
        if len(expr.args) != len(function.params):
            raise CompileError(
                f"{expr.name}() takes {len(function.params)} argument(s),"
                f" got {len(expr.args)}", expr.line)
        for argument in expr.args:
            self._expression(argument)
            self.op("push r24")
            self.op("push r25")
        for lo, hi in reversed(PARAM_REGS[:len(expr.args)]):
            self.op(f"pop r{hi}")
            self.op(f"pop r{lo}")
        self.op(f"call {expr.name}")

    def _intrinsic(self, expr: Call) -> None:
        arity = {"halt": 0, "sleep": 0, "io_read": 1, "io_write": 2,
                 "settimer": 1}[expr.name]
        if len(expr.args) != arity:
            raise CompileError(
                f"{expr.name}() takes {arity} argument(s)", expr.line)
        if expr.name == "halt":
            self.op("break")
            return
        if expr.name == "sleep":
            self.op("sleep")
            return
        if expr.name == "io_read":
            self._expression(expr.args[0])
            self.op("movw r26, r24")
            self.op("ld r24, X")
            self.op("ldi r25, 0")
            return
        if expr.name == "io_write":
            self._expression(expr.args[0])
            self.op("push r24")
            self.op("push r25")
            self._expression(expr.args[1])
            self.op("pop r27")
            self.op("pop r26")
            self.op("st X, r24")
            return
        if expr.name == "settimer":
            self._expression(expr.args[0])
            self.op(f"sts {ioports.OCR3AH}, r25")
            self.op(f"sts {ioports.OCR3AL}, r24")
            return
        raise CompileError(f"unhandled intrinsic {expr.name!r}",
                           expr.line)  # pragma: no cover

    # -- helpers emitted on demand ---------------------------------------------------------

    def _emit_mul16(self) -> None:
        self.emit("__mul16:")
        self.op("movw r20, r24")
        self.op("ldi r24, 0")
        self.op("ldi r25, 0")
        self.emit("__mul16_loop:")
        self.op("mov r18, r20")
        self.op("or r18, r21")
        self.op("breq __mul16_done")
        self.op("sbrs r20, 0")
        self.op("rjmp __mul16_skip")
        self.op("add r24, r22")
        self.op("adc r25, r23")
        self.emit("__mul16_skip:")
        self.op("lsl r22")
        self.op("rol r23")
        self.op("lsr r21")
        self.op("ror r20")
        self.op("rjmp __mul16_loop")
        self.emit("__mul16_done:")
        self.op("ret")

    def _emit_div16(self) -> None:
        """Restoring division: r23:r22 / r25:r24.

        Returns quotient in r25:r24 and remainder in r19:r18; clobbers
        r20, r21, r26.
        """
        self.emit("__div16:")
        self.op("movw r20, r24")     # divisor
        self.op("ldi r18, 0")        # remainder = 0
        self.op("ldi r19, 0")
        self.op("ldi r26, 16")       # bit counter
        self.emit("__div16_loop:")
        self.op("lsl r22")           # dividend <<= 1, MSB -> remainder
        self.op("rol r23")
        self.op("rol r18")
        self.op("rol r19")
        self.op("cp r18, r20")
        self.op("cpc r19, r21")
        self.op("brlo __div16_skip")
        self.op("sub r18, r20")
        self.op("sbc r19, r21")
        self.op("ori r22, 1")        # quotient bit
        self.emit("__div16_skip:")
        self.op("dec r26")
        self.op("brne __div16_loop")
        self.op("movw r24, r22")     # quotient
        self.op("ret")
