(* Self-similarity: where this paper meets the Leland/Paxson literature.

   The studies the paper critiques characterize traffic by its Hurst
   parameter. This example aggregates 20 clients of either Poisson or
   heavy-tailed Pareto-on/off traffic over UDP and TCP Reno, estimates H
   from the wavelet logscale diagram of 10 ms gateway arrival counts, and
   prints the paper's c.o.v. at the RTT bin and the index of dispersion
   across timescales.

   Expected shape:
     - Poisson over UDP:  H ~ 0.5, flat IDC (short-range dependent).
     - Pareto over UDP:   H well above 0.5, growing IDC (self-similar,
                          the Willinger on/off construction).
     - TCP modulation raises burstiness metrics relative to UDP even for
       Poisson input - the paper's point that the *protocol*, not just
       the workload, shapes the traffic.

   Run with: dune exec examples/selfsimilar_traffic.exe *)

let () =
  let cfg =
    {
      (Burstcore.Config.with_clients Burstcore.Config.default 20) with
      Burstcore.Config.duration_s = 300.;
      warmup_s = 20.;
    }
  in
  Burstcore.Selfsim.report Format.std_formatter cfg;
  Format.printf
    "@.H (wavelet) is the Hurst estimate: 0.5 = memoryless, -> 1 =@.";
  Format.printf
    "strongly self-similar. cov@RTT is the paper's c.o.v. of arrivals@.";
  Format.printf
    "per round-trip time. IDC m:v is the index of dispersion@.";
  Format.printf
    "for counts over blocks of m bins (bin = 10 ms); Poisson stays near 1@.";
  Format.printf "at every scale, self-similar traffic grows with m.@."
