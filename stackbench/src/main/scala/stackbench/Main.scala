package stackbench

import java.io.{FileDescriptor, FileOutputStream, PrintStream}
import java.nio.file.Paths

/** Entry point: `Main --workload <olap|oltp-live|gnn> --seed <n>
  * --seconds <s> --trace <0|1>`. Progress goes to stderr; the last line on
  * stdout is the JSON result. Exits non-zero when a check fails.
  */
object Main {
  def main(argv: Array[String]): Unit = {
    val out = new PrintStream(new FileOutputStream(FileDescriptor.out), true, "UTF-8")
    System.setErr(new PrintStream(new FileOutputStream(FileDescriptor.err), true, "UTF-8"))
    val args = Args.parse(argv)
    val startMillis = sys.props.get("stackbench.startMillis").map(_.toLong)
      .getOrElse(java.lang.management.ManagementFactory.getRuntimeMXBean.getStartTime)
    val workDir = Paths.get(sys.props.getOrElse("stackbench.workDir", "stackbench/work")).toAbsolutePath
    val ctx = new Ctx(args, startMillis, workDir)
    ctx.log(machine(ctx))
    val outcome =
      try args.workload match {
        case "olap" => Olap.run(ctx)
        case "oltp-live" => OltpLive.run(ctx)
        case "gnn" => Gnn.run(ctx)
        case other => throw new IllegalArgumentException(s"unknown workload $other")
      } finally ctx.spark.stop()
    val metrics = if (args.trace) outcome.perLayer else outcome.endToEnd
    val problems = outcome.problems ++ missing(metrics.map(_._1), args.trace)
    ctx.log(s"checks done: ${problems.size} problems")
    problems.foreach(p => ctx.log(s"CHECK FAILED: $p"))
    if (args.trace) {
      val path = workDir.resolve(s"trace-${args.workload}-${args.seed}.tsv")
      ctx.tracer.write(path)
      ctx.log(s"spans written to $path")
    }
    val correct = problems.isEmpty
    out.println(Json.result(correct, outcome.attempted, outcome.failed, metrics))
    out.flush()
    System.exit(if (correct) 0 else 1)
  }

  /** Metrics BENCHMARK.json names (when it is in the working directory)
    * that the run did not produce.
    */
  def missing(got: Seq[String], trace: Boolean): Seq[String] = {
    val spec = new java.io.File("BENCHMARK.json")
    if (!spec.exists()) return Nil
    val names = new com.fasterxml.jackson.databind.ObjectMapper().readTree(spec)
      .get(if (trace) "per_layer" else "end_to_end").elements()
    val out = Seq.newBuilder[String]
    names.forEachRemaining { m =>
      val n = m.get("name").asText()
      if (!got.contains(n)) out += s"metric $n was not measured"
    }
    out.result()
  }

  /** One line describing where the run happened. */
  def machine(ctx: Ctx): String = {
    val rt = Runtime.getRuntime
    s"machine: nproc=${ctx.nproc} heap=${rt.maxMemory / (1024 * 1024)}MB gc=${Jvm.collectorNames} " +
      s"jdk=${System.getProperty("java.vm.name")} ${System.getProperty("java.version")} " +
      s"git=${sys.props.getOrElse("stackbench.gitSha", "unknown")} workload=${ctx.args.workload} " +
      s"seed=${ctx.args.seed} seconds=${ctx.args.seconds} trace=${ctx.args.trace}"
  }
}
