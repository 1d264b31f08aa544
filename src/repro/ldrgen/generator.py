"""The program generator driver."""

from __future__ import annotations

import numpy as np

from repro.frontend.ast_ import (
    ArrayRef,
    Assign,
    BinOp,
    Decl,
    For,
    Function,
    If,
    IntConst,
    Program,
    Return,
    Stmt,
    Var,
)
from repro.typesys import CArray, CInt
from repro.ldrgen.config import GeneratorConfig
from repro.ldrgen.expressions import ExpressionSampler


def sample_seed(base_seed: int, index: int) -> np.random.SeedSequence:
    """Independent deterministic rng stream for sample ``index`` of a
    dataset keyed by ``base_seed``.

    ``SeedSequence`` spawn keys guarantee stream independence, so sample
    ``i`` comes out bitwise-identical whether it is generated alone, in
    order, or on any worker of a multiprocessing pool — the seeding
    contract :mod:`repro.dataset.pipeline` builds on.
    """
    if index < 0:
        raise ValueError(f"sample index must be non-negative, got {index}")
    return np.random.SeedSequence(entropy=base_seed, spawn_key=(index,))


class ProgramGenerator:
    """Seeded generator producing one :class:`Program` per call."""

    def __init__(self, config: GeneratorConfig, seed: int = 0):
        self.config = config
        self.rng = np.random.default_rng(seed)
        self._program_counter = 0

    @classmethod
    def at_index(
        cls, config: GeneratorConfig, base_seed: int, index: int
    ) -> "ProgramGenerator":
        """Generator positioned to emit exactly sample ``index`` of the
        per-sample-seeded stream (0-based; program names stay 1-based)."""
        generator = cls(config, seed=0)
        generator.rng = np.random.default_rng(sample_seed(base_seed, index))
        generator._program_counter = index
        return generator

    # -- public API --------------------------------------------------------
    def generate(self) -> Program:
        self._program_counter += 1
        name = f"{self.config.mode}_prog_{self._program_counter:06d}"
        function = (
            self._generate_dfg_function(name)
            if self.config.mode == "dfg"
            else self._generate_cdfg_function(name)
        )
        return Program(name=name, functions=[function])

    # -- shared pieces -------------------------------------------------------
    def _sample_signature(
        self,
    ) -> tuple[list[tuple[str, CInt | CArray]], dict[str, CInt], dict[str, tuple[CInt, int]]]:
        config, rng = self.config, self.rng
        params: list[tuple[str, CInt | CArray]] = []
        scalars: dict[str, CInt] = {}
        arrays: dict[str, tuple[CInt, int]] = {}
        n_scalars = int(rng.integers(config.scalar_params[0], config.scalar_params[1] + 1))
        for i in range(n_scalars):
            width = int(rng.choice(config.width_choices, p=config.width_weights))
            ctype = CInt(width)
            name = f"p{i}"
            params.append((name, ctype))
            scalars[name] = ctype
        n_arrays = int(rng.integers(config.array_params[0], config.array_params[1] + 1))
        for i in range(n_arrays):
            width = int(rng.choice(config.width_choices, p=config.width_weights))
            length = int(rng.choice(config.array_length_choices))
            name = f"arr{i}"
            params.append((name, CArray(CInt(width), length)))
            arrays[name] = (CInt(width), length)
        return params, scalars, arrays

    def _result_width(self, scalars: dict[str, CInt]) -> CInt:
        widths = [t.width for t in scalars.values()] or [32]
        return CInt(max(32, max(widths)))

    def _liveness_return(self, locals_: list[str]) -> Return:
        """Fold every computed local into the return value so nothing is
        dead — the ldrgen liveness guarantee."""
        if not locals_:
            return Return(IntConst(0))
        expr = Var(locals_[0])
        for name in locals_[1:]:
            expr = BinOp("^", expr, Var(name))
        return Return(expr)

    # -- DFG mode -------------------------------------------------------------
    def _generate_dfg_function(self, name: str) -> Function:
        config, rng = self.config, self.rng
        params, scalars, arrays = self._sample_signature()
        sampler = ExpressionSampler(config, rng, scalars, arrays)
        body: list[Stmt] = []
        locals_: list[str] = []
        n_statements = int(
            rng.integers(config.min_statements, config.max_statements + 1)
        )
        for i in range(n_statements):
            roll = rng.random()
            if arrays and roll < config.p_array_store and locals_:
                array = str(rng.choice(sorted(arrays)))
                _, length = arrays[array]
                body.append(
                    Assign(
                        ArrayRef(array, sampler._index_expr(length, [])),
                        sampler.expression(config.max_expr_depth, []),
                    )
                )
                continue
            width = int(rng.choice(config.width_choices, p=config.width_weights))
            var = f"v{i}"
            body.append(
                Decl(var, CInt(width), sampler.expression(config.max_expr_depth, []))
            )
            scalars[var] = CInt(width)
            locals_.append(var)
        body.append(self._liveness_return(locals_))
        return Function(
            name=name,
            params=params,
            ret_type=self._result_width(scalars),
            body=body,
        )

    # -- CDFG mode --------------------------------------------------------------
    def _generate_cdfg_function(self, name: str) -> Function:
        config, rng = self.config, self.rng
        params, scalars, arrays = self._sample_signature()
        sampler = ExpressionSampler(config, rng, scalars, arrays)
        body: list[Stmt] = []
        locals_: list[str] = []
        # Accumulator variables that loops will update.
        n_accumulators = int(rng.integers(1, 4))
        for i in range(n_accumulators):
            width = int(rng.choice(config.width_choices, p=config.width_weights))
            var = f"acc{i}"
            body.append(Decl(var, CInt(width), IntConst(0, CInt(width))))
            scalars[var] = CInt(width)
            locals_.append(var)

        n_loops = int(rng.integers(1, config.max_loops + 1))
        loop_counter = [0]
        body.extend(
            self._generate_loop(sampler, scalars, arrays, locals_, 1, loop_counter)
            for _ in range(n_loops)
        )
        # A little straight-line tail keeps DFG content in the mix.
        n_tail = int(rng.integers(0, 3))
        for i in range(n_tail):
            width = int(rng.choice(config.width_choices, p=config.width_weights))
            var = f"t{i}"
            body.append(
                Decl(var, CInt(width), sampler.expression(config.max_expr_depth, []))
            )
            scalars[var] = CInt(width)
            locals_.append(var)
        body.append(self._liveness_return(locals_))
        return Function(
            name=name,
            params=params,
            ret_type=self._result_width(scalars),
            body=body,
        )

    def _generate_loop(
        self,
        sampler: ExpressionSampler,
        scalars: dict[str, CInt],
        arrays: dict[str, tuple[CInt, int]],
        locals_: list[str],
        nest: int,
        loop_counter: list[int],
    ) -> For:
        config, rng = self.config, self.rng
        loop_counter[0] += 1
        loop_var = f"i{loop_counter[0]}"
        trip = int(rng.choice(config.trip_count_choices))
        body: list[Stmt] = []
        index_pool = [loop_var]
        # Loop variable participates in expressions inside the body.
        scalars_in_loop = dict(scalars)
        scalars_in_loop[loop_var] = CInt(32)
        inner_sampler = ExpressionSampler(config, rng, scalars_in_loop, arrays)
        lo, hi = config.loop_body_statements
        n_statements = int(rng.integers(lo, hi + 1))
        for _ in range(n_statements):
            roll = rng.random()
            if nest < config.max_loop_nest and roll < 0.2:
                body.append(
                    self._generate_loop(
                        inner_sampler, scalars_in_loop, arrays, locals_, nest + 1,
                        loop_counter,
                    )
                )
            elif roll < 0.2 + config.p_if:
                target = str(rng.choice(locals_))
                then_body: list[Stmt] = [
                    Assign(
                        Var(target),
                        inner_sampler.expression(config.max_expr_depth - 1, index_pool),
                    )
                ]
                else_body: list[Stmt] = []
                if rng.random() < config.p_else:
                    else_body = [
                        Assign(
                            Var(target),
                            inner_sampler.expression(
                                config.max_expr_depth - 1, index_pool
                            ),
                        )
                    ]
                body.append(
                    If(
                        inner_sampler.comparison(config.max_expr_depth - 1, index_pool),
                        then_body,
                        else_body,
                    )
                )
            elif arrays and roll < 0.2 + config.p_if + config.p_array_store:
                array = str(rng.choice(sorted(arrays)))
                _, length = arrays[array]
                body.append(
                    Assign(
                        ArrayRef(array, inner_sampler._index_expr(length, index_pool)),
                        inner_sampler.expression(config.max_expr_depth - 1, index_pool),
                    )
                )
            else:
                target = str(rng.choice(locals_))
                update = inner_sampler.expression(
                    config.max_expr_depth - 1, index_pool
                )
                body.append(
                    Assign(Var(target), BinOp("+", Var(target), update))
                )
        unroll, pipeline = self._sample_directives(trip)
        return For(loop_var, 0, trip, 1, body, unroll=unroll, pipeline=pipeline)

    def _sample_directives(self, trip: int) -> tuple[int | None, bool]:
        """Random HLS directives so the training distribution exercises
        the directive feature columns the DSE predictor relies on."""
        config, rng = self.config, self.rng
        unroll: int | None = None
        if config.p_unroll_directive > 0 and rng.random() < config.p_unroll_directive:
            options = [f for f in config.unroll_directive_choices if f <= trip]
            if options:
                unroll = int(rng.choice(options))
        pipeline = bool(
            config.p_pipeline_directive > 0
            and rng.random() < config.p_pipeline_directive
        )
        return unroll, pipeline


def generate_program(config: GeneratorConfig, seed: int) -> Program:
    """One-shot convenience wrapper."""
    return ProgramGenerator(config, seed=seed).generate()


def generate_sample(config: GeneratorConfig, base_seed: int, index: int) -> Program:
    """Sample ``index`` of the dataset keyed by ``base_seed``.

    Order- and worker-independent: the dataset builders and the parallel
    pipeline both call this, which is what makes ``workers=N`` output
    bitwise-identical to a serial build.
    """
    return ProgramGenerator.at_index(config, base_seed, index).generate()
