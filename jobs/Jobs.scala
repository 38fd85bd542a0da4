package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.exp._

/** spark-submit entry point: runs one experiment (or `all`, in order) and
  * prints the same rows the bench suite asserts on. Pass `--quick` for a
  * fast smoke run at reduced scale.
  *
  * {{{ spark-submit --class repro.jobs.Run repro.jar exp3 [--quick] }}}
  */
object Run {

  /** Experiment name → (session, quick) => report, one per paper table/figure. */
  val Experiments: Seq[(String, (SparkSession, Boolean) => String)] = Seq(
    "exp0" -> ((s, _) => Datasets.inventoryReport(s)),
    "exp1" -> ((s, q) => Exp1Storage.report(Exp1Storage.run(s, q))),
    "exp2" -> ((s, q) => Exp2Query.report(Exp2Query.run(s, q))),
    "exp3" -> ((s, q) => Exp3Analytics.report(Exp3Analytics.run(s, q))),
    "exp4" -> ((s, q) => Exp4Learning.report(Exp4Learning.run(s, q))),
    "exp5" -> ((s, q) => Exp5Fraud.report(Exp5Fraud.run(s, q))),
    "exp6" -> ((s, q) => Exp6Equity.report(Exp6Equity.run(s, q))),
    "exp7" -> ((s, q) => Exp7Social.report(Exp7Social.run(s, q))),
    "exp8" -> ((s, q) => Exp8Cyber.report(Exp8Cyber.run(s, q))),
  )

  def main(args: Array[String]): Unit = {
    val chosen = args.filterNot(_ == "--quick") match {
      case Array("all") => Experiments
      case Array(name) if Experiments.exists(_._1 == name) => Experiments.filter(_._1 == name)
      case _ =>
        System.err.println(s"usage: repro.jobs.Run <${Experiments.map(_._1).mkString("|")}|all> [--quick]")
        sys.exit(2)
    }
    val s = SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(if (chosen.size == 1) chosen.head._1 else "all-experiments")
      .config("spark.sql.shuffle.partitions", sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", "64"))
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .config("spark.ui.enabled", value = false)
      .getOrCreate()
    s.sparkContext.setLogLevel("WARN")
    try chosen.foreach { case (_, run) => println(run(s, args.contains("--quick"))) }
    finally s.stop()
  }
}
