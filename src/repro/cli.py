"""Command-line entry point: regenerate any table or figure of the paper.

::

    python -m repro table1
    python -m repro figure2
    python -m repro figure7  [--scale 0.6] [--inputs 1]
    python -m repro figure8a
    python -m repro figure8b [--inputs 10]
    python -m repro figure9  [--trials 100] [--scale 0.35] [--jobs 4]
                             [--checkpoint fig9.json] [--resume]
    python -m repro tradeoff [--trials 60] [--jobs 4]
    python -m repro costratio
    python -m repro difftest [--seed 0] [--n 200] [--oracle all] [--shrink]
                             [--jobs 4]
    python -m repro schemes
    python -m repro cache-check [--corpus difftest/corpus]
    python -m repro run blackscholes --scheme AR50 --trace-out t.jsonl
    python -m repro campaign lud --scheme AR100 --trials 200 --jobs 4 \\
                             --trace-out t.jsonl
    python -m repro report t.jsonl
    python -m repro serve [--port 8787] [--workers 4]
    python -m repro all

The global ``--backend {ref,compiled,batch}`` flag selects the execution
backend for clean runs (default ``compiled``); instrumented runs always
use the reference interpreter.  ``batch`` additionally routes campaign
trial chunks through the lane-vectorized batch engine
(``repro.runtime.batch``), which runs every trial of a chunk in lockstep.
"""
from __future__ import annotations

import argparse
import os
import sys
import time
from contextlib import contextmanager
from typing import List, Optional

from .eval import (
    CheckpointBusyError,
    CheckpointMismatchError,
    Harness,
    campaign_input,
    campaign_profiles,
    charts,
    cost_ratio,
    figure2,
    figure7,
    figure8a,
    figure8b,
    figure9,
    injection_scale,
    reporting,
    section73,
    table1,
)
from .pipeline.registry import PAPER_SCHEMES, canonical_scheme, scheme_names
from .workloads import ALL_WORKLOADS, get_workload


def _scheme_arg(value: str) -> str:
    """argparse type for ``--scheme``: any registry spelling, canonicalized.

    The accepted set comes from the scheme registry, so the CLI can never
    drift from the schemes the library actually implements.
    """
    try:
        return canonical_scheme(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _workload_arg(value: str) -> str:
    """argparse type for a workload name: one of the registered workloads,
    so a typo exits 2 with a usage error instead of a ``KeyError``."""
    try:
        return get_workload(value).name
    except KeyError as exc:
        raise argparse.ArgumentTypeError(exc.args[0])


def _positive(kind):
    """argparse type for sizes: a *kind* number greater than zero, so a
    zero or negative ``--trials``/``--scale`` exits 2 with a usage error
    instead of failing (or silently shrinking the run) later on."""
    def parse(value: str):
        number = kind(value)
        if not number > 0:  # NaN fails this too
            raise argparse.ArgumentTypeError(f"must be positive, got {value}")
        return number
    parse.__name__ = kind.__name__  # named in argparse's "invalid" message
    return parse


_positive_int = _positive(int)
_positive_float = _positive(float)


_SCHEME_HELP = (
    f"protection scheme: one of {', '.join(scheme_names())} "
    f"(any AR<k>; lowercase aliases like 'swift-r' and 'rskip' accepted)"
)


def _timed(label):
    class _Timer:
        def __enter__(self):
            self.t0 = time.time()
            print(f"== {label} ==")
            return self

        def __exit__(self, *exc):
            print(f"   ({time.time() - self.t0:.1f}s)\n")

    return _Timer()


@contextmanager
def _checkpoint_errors(command: str):
    """An unusable campaign checkpoint (held by a live campaign,
    unparsable, or written by another version or other parameters) is a
    user error: one line on stderr and exit status 2, not a traceback."""
    try:
        yield
    except (CheckpointBusyError, CheckpointMismatchError) as exc:
        print(f"{command}: {exc}", file=sys.stderr)
        sys.exit(2)


def _print_outcomes(result) -> None:
    """A campaign's outcome block: the share of every outcome that
    occurred, then its detection counters."""
    from .runtime import Outcome

    for outcome in Outcome:
        count = result.tallies.get(outcome, 0)
        if count:
            print(f"   {outcome.name:<10} {count:>5}  "
                  f"({count / result.trials:6.1%})")
    print(f"   detected={result.detected}  caught={result.caught}  "
          f"false negatives={result.false_negatives}")


def cmd_table1(args) -> None:
    with _timed("Table 1: selected benchmarks"):
        print(reporting.render_table1(table1(ALL_WORKLOADS, scale=args.scale)))


def cmd_figure2(args) -> None:
    with _timed("Figure 2: coverage of predictable computations"):
        print(reporting.render_figure2(figure2(ALL_WORKLOADS, scale=args.scale)))


def cmd_figure7(args) -> None:
    with _timed("Figure 7: performance overhead"):
        result = figure7(ALL_WORKLOADS, scale=args.scale, test_count=args.inputs)
        for metric, title, pct in (
            ("skip", "7a: average skip rate", True),
            ("time", "7b: normalized execution time", False),
            ("instructions", "7c: normalized dynamic instructions", False),
            ("ipc", "7d: normalized IPC", False),
        ):
            print(f"-- Figure {title} --")
            print(reporting.render_figure7(result, metric, pct=pct))
            print()
        averages = result.averages()
        print("-- averages (normalized execution time) --")
        print(charts.bar_chart(
            [(a.scheme, a.norm_time) for a in averages], fmt="{:.2f}x"
        ))
        print()


def cmd_figure8a(args) -> None:
    with _timed("Figure 8a: blackscholes predictor ablation"):
        print(reporting.render_figure8a(figure8a(get_workload("blackscholes"), scale=args.scale)))


def cmd_figure8b(args) -> None:
    with _timed("Figure 8b: lud input diversity (AR20)"):
        print(
            reporting.render_figure8b(
                figure8b(get_workload("lud"), inputs=args.inputs, scale=max(args.scale, 1.0))
            )
        )


def cmd_figure9(args) -> None:
    from .eval import eta_printer

    schemes = PAPER_SCHEMES
    sfi_scale = injection_scale(args.scale)
    resume = getattr(args, "resume", False)
    checkpoint = getattr(args, "checkpoint", None)
    if resume and checkpoint is None:
        checkpoint = "figure9-checkpoint.json"
    jobs = args.jobs
    label = f"{args.trials} trials per scheme"
    if jobs > 1:
        label += f", {jobs} jobs"
    with _checkpoint_errors("figure9"), \
            _timed(f"Figure 9: fault injection ({label})"):
        results = figure9(
            ALL_WORKLOADS,
            schemes=schemes,
            trials=args.trials,
            scale=sfi_scale,
            profile_source=campaign_profiles(sfi_scale),
            jobs=jobs,
            checkpoint=checkpoint,
            resume=resume,
            progress=eta_printer("figure9") if jobs > 1 or checkpoint else None,
        )
        print("-- Figure 9a: outcome breakdown --")
        print(reporting.render_figure9a(results, schemes))
        print()
        from .runtime import Outcome

        rows = []
        for scheme in schemes:
            group = [c for (w, s), c in results.items() if s == scheme]
            shares = {
                str(o): sum(c.rate(o) for c in group) / len(group)
                for o in Outcome
            }
            rows.append((scheme, shares))
        print(charts.stacked_chart(rows, [str(o) for o in Outcome],
                                   title="outcome shares per scheme"))
        print()
        print("-- Figure 9b: false negatives --")
        print(reporting.render_figure9b(results))


def cmd_tradeoff(args) -> None:
    with _timed("Section 7.3: acceptable-range tradeoff"):
        rows = section73(
            ALL_WORKLOADS,
            trials=args.trials,
            perf_scale=args.scale,
            sfi_scale=injection_scale(args.scale),
            jobs=args.jobs,
        )
        print(reporting.render_tradeoff(rows))


def cmd_sweep(args) -> None:
    from .eval import ar_sweep, render_sweep

    workload = get_workload(args.workload)
    with _timed(f"Acceptable-range continuum: {workload.name}"):
        points = ar_sweep(
            workload, scale=args.scale, trials=args.trials,
            sfi_scale=injection_scale(args.scale), jobs=args.jobs,
        )
        print(render_sweep(workload.name, points))


def cmd_scaling(args) -> None:
    from .eval import render_scaling, scaling_study

    workload = get_workload(args.workload)
    with _timed(f"Problem-size scaling: {workload.name}"):
        rows = scaling_study(workload)
        print(render_scaling(workload.name, rows))


def cmd_costratio(args) -> None:
    with _timed("Section 2: prediction vs re-computation cost"):
        for workload in ALL_WORKLOADS:
            print(f"  {cost_ratio(workload)}")


def cmd_all(args) -> None:
    cmd_table1(args)
    cmd_figure2(args)
    cmd_costratio(args)
    cmd_figure7(args)
    cmd_figure8a(args)
    cmd_figure8b(args)
    cmd_figure9(args)
    cmd_tradeoff(args)


def cmd_difftest(args) -> None:
    from .difftest import render_report, run_difftest

    t0 = time.time()
    report = run_difftest(
        seed=args.seed,
        n=args.n,
        oracle=args.oracle,
        jobs=args.jobs,
        fault_samples=args.fault_samples,
        shrink=args.shrink,
        corpus_dir=args.corpus if args.shrink else None,
    )
    # timing on stderr: stdout stays byte-identical for any --jobs
    print(f"difftest: {args.n} programs in {time.time() - t0:.1f}s "
          f"({args.jobs} jobs)", file=sys.stderr)
    print(render_report(report))
    if report.violations:
        sys.exit(1)


def cmd_skipmap(args) -> None:
    """Exhaustive skip-site model checking rendered as a per-scheme table."""
    from .eval.skipmap import render_skipmap, skip_vulnerability_table

    t0 = time.time()
    table = skip_vulnerability_table(
        seed=args.seed,
        programs=args.programs,
        site_cap=args.site_cap,
        burst_len=args.burst_len,
    )
    # timing on stderr: stdout stays deterministic
    print(f"skipmap: {args.programs} program(s) in {time.time() - t0:.1f}s",
          file=sys.stderr)
    print(render_skipmap(table))


def cmd_schemes(args) -> None:
    """List every registered protection scheme from the registry."""
    from .pipeline import CLEANUP_PIPELINE, all_descriptors

    print("registered protection schemes "
          "(canonical name first; any alias is accepted everywhere):")
    for desc in all_descriptors():
        aliases = ", ".join(a for a in desc.aliases if a != desc.name)
        passes = " -> ".join(desc.passes) if desc.passes else "(none)"
        params = []
        if desc.acceptable_range is not None:
            params.append(f"acceptable_range={desc.acceptable_range:g}")
        if desc.needs_training:
            params.append("needs_training")
        if desc.needs_runtime:
            params.append("needs_runtime")
        print(f"  {desc.name:<8} {desc.description}")
        print(f"           aliases: {aliases or '-'}")
        print(f"           passes:  {passes}")
        print(f"           protocol: {desc.protocol.describe()}")
        if desc.protocol.verify_as:
            print(f"           verified-as: {desc.protocol.verify_as} "
                  f"(full-coverage contract point)")
        if params:
            print(f"           params:  {', '.join(params)}")
    print(f"  (AR<k> is accepted for any integer k; 'rskip' resolves to "
          f"the config's acceptable range; REPLAY<n> replays every n-th "
          f"window and CKPT<i>[FIX] checkpoints every i elements, FIX "
          f"pinning the interval against the fault-likelihood signal)")
    print(f"  cleanup pipeline before protection when optimizing: "
          f"{' -> '.join(CLEANUP_PIPELINE)}")


def cmd_cache_check(args) -> None:
    """Byte-identity audit: cached vs uncached protection over the corpus."""
    import glob

    from .pipeline import (
        ArtifactCache,
        protect,
        selfcheck_byte_identity,
        selfcheck_schemes,
    )
    from .ir.parser import parse_module
    from .ir.printer import format_module

    paths = sorted(glob.glob(os.path.join(args.corpus, "*.ir")))
    if not paths:
        print(f"cache-check: no .ir programs under {args.corpus}",
              file=sys.stderr)
        sys.exit(2)

    problems: List[str] = []
    schemes = selfcheck_schemes()
    with _timed(f"cache-check: {len(paths)} corpus programs "
                f"x {{{', '.join(schemes)}}} x {{off, miss, hit, disk}}"):
        for path in paths:
            name = os.path.basename(path)
            with open(path, "r", encoding="utf-8") as handle:
                text = handle.read()
            for problem in selfcheck_byte_identity(text, schemes):
                problems.append(f"{name}: {problem}")

            # disk tier: fill through one cache instance, read back through
            # a fresh one sharing only the directory (cross-process shape)
            import tempfile

            with tempfile.TemporaryDirectory(prefix="repro-cache-") as tmp:
                baseline = protect(parse_module(text), "AR20",
                                   optimize=True, use_cache=False)
                writer = ArtifactCache(directory=tmp)
                protect(parse_module(text), "AR20", optimize=True,
                        cache=writer)
                reader = ArtifactCache(directory=tmp)
                hit = protect(parse_module(text), "AR20", optimize=True,
                              cache=reader)
                if not hit.cache_hit or reader.disk_hits != 1:
                    problems.append(
                        f"{name}: disk store did not serve the re-protection")
                elif (format_module(hit.module)
                        != format_module(baseline.module)):
                    problems.append(
                        f"{name}: disk-cache module differs from uncached")
        for problem in problems:
            print(f"   MISMATCH {problem}")
        if not problems:
            print(f"   all protected modules byte-identical with the "
                  f"cache off, cold, warm and disk-backed")

    # campaign-section store: count entries and let the cache's read path
    # audit each one (corrupt or stale entries are removed on read)
    from .eval import SectionStore, campaign_store_dir

    store_dir = campaign_store_dir()
    entries = sorted(
        name[:-len(".json")]
        for name in (os.listdir(store_dir) if os.path.isdir(store_dir) else ())
        if name.endswith(".json")
    )
    if entries:
        store = SectionStore(capacity=max(len(entries), 1))
        valid = sum(1 for key in entries if store.get(key) is not None)
        dropped = len(entries) - valid
        line = (f"   campaign-section store ({store_dir}): "
                f"{valid} valid entries")
        if dropped:
            line += f", {dropped} corrupt/stale removed"
        print(line)
    else:
        print(f"   campaign-section store ({store_dir}): empty")

    # orphaned atomic-write temp files: a crashed writer between mkstemp
    # and os.replace leaves `.*.tmp` files behind; age-gated so live
    # writers (including other processes mid-write) are never touched
    from .pipeline.cache import cache_dir, sweep_stale_tmp

    swept = sweep_stale_tmp(cache_dir()) + sweep_stale_tmp(store_dir)
    print(f"   stale .tmp files swept: {swept}")
    if problems:
        sys.exit(1)


def cmd_run(args) -> None:
    """One measured (workload, scheme) execution, optionally traced."""
    from dataclasses import asdict

    workload = get_workload(args.workload)
    harness = Harness(workload, scale=args.scale, seed=args.seed)
    sink = None
    run_id = ""
    if args.trace_out:
        from .obs import JsonlSink, install_sink, run_id_for

        run_id = run_id_for("run", workload.name, args.scheme,
                            args.scale, args.seed)
        sink = JsonlSink(args.trace_out)
        install_sink(sink, run_id=run_id)
    try:
        with _timed(f"run: {workload.name} under {args.scheme}"):
            inp = campaign_input(workload, args.seed, args.scale)
            record = harness.run_all([args.scheme], inp)[args.scheme]
            print(f"   steps={record.steps}  cycles={record.cycles}  "
                  f"ipc={record.ipc:.2f}  correct={record.correct}")
            if record.skip_rate is not None:
                print(f"   skip rate {record.skip_rate:.1%}")
    finally:
        if sink is not None:
            from .obs import remove_sink

            remove_sink()
            sink.close()
    if sink is not None:
        from .obs import RunManifest, manifest_path_for
        from .runtime import default_backend
        from .runtime.compiler import module_fingerprint

        totals = {}
        if record.stats is not None:
            totals = {k: v for k, v in asdict(record.stats).items() if v}
        prepared = harness.prepare_scheme(args.scheme)
        RunManifest(
            run=run_id,
            command="run",
            backend=default_backend(),
            params={"workload": workload.name, "scheme": args.scheme,
                    "scale": args.scale, "seed": args.seed},
            fingerprints={
                f"{workload.name}|{args.scheme}":
                    module_fingerprint(prepared.module),
            },
            totals=totals,
            events=sink.count,
            spans=list(sink.spans),
        ).write(args.trace_out)
        print(f"   trace: {args.trace_out} ({sink.count} events), "
              f"manifest: {manifest_path_for(args.trace_out)}")


def cmd_campaign(args) -> None:
    """One (workload, scheme) fault-injection campaign, optionally traced."""
    from .eval import eta_printer, run_campaign_parallel

    workload = get_workload(args.workload)
    sfi_scale = injection_scale(args.scale)
    profiles = campaign_profiles(sfi_scale)(workload, args.scheme)
    stratified = args.stratified or args.incremental
    if stratified:
        if args.jobs > 1:
            print("campaign: --stratified/--incremental run single-process "
                  "(sections already bound the work); drop --jobs",
                  file=sys.stderr)
            sys.exit(2)
        if args.checkpoint or args.resume or args.trace_out:
            print("campaign: --stratified/--incremental do not combine with "
                  "--checkpoint/--resume/--trace-out (the section store is "
                  "the persistence layer)", file=sys.stderr)
            sys.exit(2)
        _cmd_campaign_stratified(args, workload, sfi_scale, profiles)
        return
    label = f"{args.trials} trials"
    if args.jobs > 1:
        label += f", {args.jobs} jobs"
    with _checkpoint_errors("campaign"), \
            _timed(f"campaign: {workload.name} under {args.scheme} ({label})"):
        result = run_campaign_parallel(
            workload, args.scheme, trials=args.trials, seed=args.seed,
            scale=sfi_scale, profiles=profiles, jobs=args.jobs,
            checkpoint=args.checkpoint, resume=args.resume,
            progress=eta_printer("campaign") if args.jobs > 1 else None,
            trace_out=args.trace_out,
        )
        _print_outcomes(result)
    if args.trace_out:
        from .obs import manifest_path_for

        print(f"   trace: {args.trace_out}, "
              f"manifest: {manifest_path_for(args.trace_out)}")


def _cmd_campaign_stratified(args, workload, sfi_scale, profiles) -> None:
    """Stratified / incremental campaign path of ``repro campaign``."""
    from .eval import SectionStore, run_campaign_stratified

    store = SectionStore() if args.incremental else None
    mode = "incremental" if args.incremental else "stratified"
    with _timed(f"campaign: {workload.name} under {args.scheme} "
                f"({args.trials} trials, {mode})"):
        outcome = run_campaign_stratified(
            workload, args.scheme, trials=args.trials, seed=args.seed,
            scale=sfi_scale, profiles=profiles, store=store,
            reuse=args.incremental,
        )
        _print_outcomes(outcome.result)
        print(f"   sections: {len(outcome.sections)}  "
              f"reused {outcome.reused_sections} "
              f"({outcome.reused_trials} trials)  "
              f"injected {outcome.injected_sections} "
              f"({outcome.injected_trials} trials)")
        for report in outcome.sections:
            tag = "reused  " if report.reused else "injected"
            print(f"     {tag} {report.name:<24} steps={report.step_count:<8} "
                  f"trials={report.trials}")
    if store is not None:
        print(f"   section store: {store.directory}")


def cmd_serve(args) -> None:
    """Run the protection-as-a-service HTTP/JSON daemon (Ctrl-C stops)."""
    from .serve import run_serve

    run_serve(
        host=args.host, port=args.port, state_dir=args.state_dir,
        workers=args.workers, job_workers=args.job_workers,
        max_inflight=args.max_inflight, per_client=args.per_client,
    )


def cmd_report(args) -> None:
    """Render a trace report, or (legacy) write the markdown results file."""
    if getattr(args, "trace", None):
        from .obs import RunManifest, read_trace, render_trace_report

        try:
            events = read_trace(args.trace)
            manifest = RunManifest.load(args.trace)
        except (OSError, ValueError) as exc:
            print(f"report: {exc}", file=sys.stderr)
            sys.exit(2)
        print(render_trace_report(events, manifest))
        return
    _cmd_report_markdown(args)


def _cmd_report_markdown(args) -> None:
    """Run everything and write a markdown results report."""
    import contextlib
    import io

    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        cmd_all(args)
    body = buffer.getvalue()

    lines = ["# RSkip reproduction — measured results", ""]
    lines.append(
        f"Generated by `python -m repro report` "
        f"(scale {args.scale}, {args.trials} SFI trials per scheme)."
    )
    lines.append("")
    for raw in body.splitlines():
        if raw.startswith("== "):
            lines.append(f"## {raw.strip('= ').strip()}")
            lines.append("")
        elif raw.startswith("-- "):
            lines.append(f"### {raw.strip('- ').strip()}")
            lines.append("")
        elif raw.startswith("   ("):
            lines.append(f"_{raw.strip()}_")
            lines.append("")
        else:
            lines.append(f"    {raw}" if raw.strip() else "")
    text = "\n".join(lines).rstrip() + "\n"
    with open(args.output, "w", encoding="utf-8") as handle:
        handle.write(text)
    print(f"wrote {args.output} ({len(text.splitlines())} lines)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate the tables and figures of the RSkip paper (CGO'20).",
    )
    parser.add_argument("--scale", type=_positive_float, default=0.6,
                        help="problem-size multiplier (default 0.6)")
    parser.add_argument("--jobs", type=_positive_int, default=1,
                        help="worker processes for fault-injection campaigns "
                             "(default 1 = serial; results are identical for "
                             "any value)")
    parser.add_argument("--backend", choices=("ref", "compiled", "batch"),
                        default=None,
                        help="execution backend: 'compiled' (default) runs "
                             "clean (uninstrumented) runs on the closure-"
                             "compiled fast backend; 'ref' forces the "
                             "reference interpreter everywhere; 'batch' runs "
                             "faulted campaign trials as lockstep lanes "
                             "(tallies identical to 'ref') and clean runs "
                             "like 'compiled'.  Other instrumented runs "
                             "(timing, golden-run captures, single faulted "
                             "runs) "
                             "always use the reference interpreter")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("table1").set_defaults(fn=cmd_table1)
    sub.add_parser("figure2").set_defaults(fn=cmd_figure2)
    p7 = sub.add_parser("figure7")
    p7.add_argument("--inputs", type=_positive_int, default=1)
    p7.set_defaults(fn=cmd_figure7)
    sub.add_parser("figure8a").set_defaults(fn=cmd_figure8a)
    p8b = sub.add_parser("figure8b")
    p8b.add_argument("--inputs", type=_positive_int, default=10)
    p8b.set_defaults(fn=cmd_figure8b)
    p9 = sub.add_parser("figure9")
    p9.add_argument("--trials", type=_positive_int, default=100)
    p9.add_argument("--checkpoint", default=None,
                    help="JSON file partial tallies are saved to after every "
                         "trial chunk")
    p9.add_argument("--resume", action="store_true",
                    help="skip the chunks the checkpoint file already holds "
                         "(default file: figure9-checkpoint.json)")
    p9.set_defaults(fn=cmd_figure9)
    ptr = sub.add_parser("tradeoff")
    ptr.add_argument("--trials", type=_positive_int, default=60)
    ptr.set_defaults(fn=cmd_tradeoff)
    sub.add_parser("costratio").set_defaults(fn=cmd_costratio)
    psw = sub.add_parser("sweep")
    psw.add_argument("--workload", type=_workload_arg, default="backprop")
    psw.add_argument("--trials", type=int, default=0)
    psw.set_defaults(fn=cmd_sweep)
    psc = sub.add_parser("scaling")
    psc.add_argument("--workload", type=_workload_arg, default="lud")
    psc.set_defaults(fn=cmd_scaling)
    pdt = sub.add_parser(
        "difftest",
        help="differential-test the IR stack on seeded random programs",
    )
    pdt.add_argument("--seed", type=int, default=0)
    pdt.add_argument("--n", type=_positive_int, default=100,
                     help="programs to generate and check (default 100)")
    pdt.add_argument("--oracle",
                     choices=("all", "o1", "o2", "o3", "o4", "o5", "o6",
                              "o7"),
                     default="all",
                     help="o1=pipeline equivalence, o2=print/parse fixpoint, "
                          "o3=fault metamorphic property, o4=backend "
                          "equivalence, o5=batch-lane equivalence, "
                          "o6=exhaustive single-skip model checking, "
                          "o7=incremental campaign equivalence "
                          "(default all)")
    pdt.add_argument("--jobs", type=_positive_int, default=1,
                     help="worker processes; the report is byte-identical "
                          "for any value (default 1)")
    pdt.add_argument("--fault-samples", type=_positive_int, default=12,
                     help="shadow-flip trials per O3 check (default 12)")
    pdt.add_argument("--shrink", action="store_true",
                     help="delta-minimize failing programs")
    pdt.add_argument("--corpus", default="difftest/corpus",
                     help="directory shrunk counterexamples are written to "
                          "(default difftest/corpus)")
    pdt.set_defaults(fn=cmd_difftest)
    psk = sub.add_parser(
        "skipmap",
        help="enumerate every single-skip site of bounded generated "
             "programs and tabulate per-scheme outcomes",
    )
    psk.add_argument("--seed", type=int, default=0)
    psk.add_argument("--programs", type=_positive_int, default=3,
                     help="generated programs to model-check (default 3)")
    psk.add_argument("--site-cap", type=_positive_int, default=400,
                     help="exhaustive-enumeration ceiling; larger dynamic "
                          "streams are stride-sampled (default 400)")
    psk.add_argument("--burst-len", type=_positive_int, default=1,
                     help="drop this many consecutive instructions per "
                          "site (default 1 = single skip)")
    psk.set_defaults(fn=cmd_skipmap)
    psch = sub.add_parser(
        "schemes",
        help="list registered protection schemes, aliases and pass lists",
    )
    psch.set_defaults(fn=cmd_schemes)
    pcc = sub.add_parser(
        "cache-check",
        help="verify cached and uncached protection are byte-identical "
             "over the difftest corpus",
    )
    pcc.add_argument("--corpus", default="difftest/corpus",
                     help="directory of .ir programs to audit "
                          "(default difftest/corpus)")
    pcc.set_defaults(fn=cmd_cache_check)
    pall = sub.add_parser("all")
    pall.add_argument("--trials", type=_positive_int, default=60)
    pall.add_argument("--inputs", type=_positive_int, default=10)
    pall.set_defaults(fn=cmd_all)
    prun = sub.add_parser(
        "run", help="run one workload under one scheme, optionally tracing"
    )
    prun.add_argument("workload", type=_workload_arg)
    prun.add_argument("--scheme", type=_scheme_arg, default="AR50",
                      help=_SCHEME_HELP)
    prun.add_argument("--seed", type=int, default=1)
    prun.add_argument("--trace-out", default=None, metavar="TRACE.jsonl",
                      help="write observability events (JSONL) plus a run "
                           "manifest alongside; render with `repro report "
                           "TRACE.jsonl`")
    prun.set_defaults(fn=cmd_run)
    pca = sub.add_parser(
        "campaign",
        help="one (workload, scheme) fault-injection campaign",
    )
    pca.add_argument("workload", type=_workload_arg)
    pca.add_argument("--scheme", type=_scheme_arg, default="AR50",
                     help=_SCHEME_HELP)
    pca.add_argument("--trials", type=_positive_int, default=100)
    pca.add_argument("--seed", type=int, default=0)
    pca.add_argument("--checkpoint", default=None)
    pca.add_argument("--resume", action="store_true")
    pca.add_argument("--stratified", action="store_true",
                     help="allocate trials to code sections proportionally "
                          "to dynamic step count, each section drawing from "
                          "its own fingerprint-keyed seed stream")
    pca.add_argument("--incremental", action="store_true",
                     help="stratified campaign that persists per-section "
                          "tallies under .repro-cache/campaigns/ and reuses "
                          "them for sections unchanged since the last run")
    pca.add_argument("--trace-out", default=None, metavar="TRACE.jsonl",
                     help="merge per-trial observability events from every "
                          "worker shard into TRACE.jsonl (byte-identical "
                          "for any --jobs) plus a run manifest")
    pca.set_defaults(fn=cmd_campaign)
    psv = sub.add_parser(
        "serve",
        help="protection-as-a-service: an asyncio HTTP/JSON daemon over "
             "the pipeline (POST /protect /train /run /campaigns)",
    )
    psv.add_argument("--host", default="127.0.0.1")
    psv.add_argument("--port", type=int, default=8787,
                     help="TCP port (0 picks a free one; the bound port is "
                          "printed on the 'listening' line)")
    psv.add_argument("--state-dir", default=None,
                     help="job records, campaign checkpoints and request "
                          "manifests (default <cache-dir>/serve)")
    psv.add_argument("--workers", type=_positive_int, default=4,
                     help="request executor threads (default 4)")
    psv.add_argument("--job-workers", type=_positive_int, default=1,
                     help="concurrent background campaign jobs (default 1)")
    psv.add_argument("--max-inflight", type=_positive_int, default=32,
                     help="global admitted-request budget; beyond it POSTs "
                          "get 429 + Retry-After (default 32)")
    psv.add_argument("--per-client", type=_positive_int, default=8,
                     help="per-client in-flight cap (default 8)")
    psv.set_defaults(fn=cmd_serve)
    prep = sub.add_parser("report")
    prep.add_argument("trace", nargs="?", default=None,
                      help="a trace written by --trace-out; renders per-loop "
                           "skip timelines, QoS-disable causes and recovery "
                           "activity (omit for the legacy markdown results "
                           "report)")
    prep.add_argument("--trials", type=_positive_int, default=60)
    prep.add_argument("--inputs", type=_positive_int, default=10)
    prep.add_argument("--output", default="results.md")
    prep.set_defaults(fn=cmd_report)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.backend is not None:
        from .runtime import set_default_backend

        set_default_backend(args.backend)
        # campaign pool workers are fresh processes; they pick the
        # backend up from the environment
        os.environ["REPRO_BACKEND"] = args.backend
    args.fn(args)
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
