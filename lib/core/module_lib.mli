(** Level-4 analog module library — the uniform entry point over all the
    module designers, mirroring the paper's "library of analog modules"
    (§4.4): amplifiers, integrators, comparators, ADCs, DACs, filters,
    sample-and-holds, adders.

    Each constructor pairs a user spec with the specialised designer;
    {!design} dispatches, and {!fragment}/{!perf}/{!name} give the bench
    and examples one calling convention for every module. *)

type spec =
  | Audio_amp of { gain : float; bandwidth : float }
      (** open-loop two-stage opamp (paper Table 5 "amp") *)
  | Sample_hold_m of Sample_hold.spec
  | Flash_adc_m of Data_conv.Flash_adc.spec
  | Dac_m of Data_conv.Dac.spec
  | Lowpass_m of Filter.lp_spec
  | Bandpass_m of Filter.bp_spec
  | Closed_loop_m of Closed_loop.spec
  | Comparator_m of Data_conv.Comparator.spec

type design =
  | D_audio of Audio_amp.design
  | D_sh of Sample_hold.design
  | D_adc of Data_conv.Flash_adc.design
  | D_dac of Data_conv.Dac.design
  | D_lpf of Filter.lp_design
  | D_bpf of Filter.bp_design
  | D_closed of Closed_loop.design
  | D_comp of Data_conv.Comparator.design

val check : spec -> (string * string) option
(** The first parameter outside the range its designer accepts, as
    [(field, complaint)] — [("order", "must be even and at least 2,
    got 3")] — with fields named as in the VASE spec language (order,
    fc, r, q, gain, c, bandwidth, sr, bits, delay, settling, funity).
    [None] means {!design} raises no [Invalid_argument] on the spec;
    a spec no design can meet is still {!Opamp.Infeasible}. *)

val design : Ape_process.Process.t -> spec -> design
val fragment : Ape_process.Process.t -> design -> Fragment.t
val perf : design -> Perf.t
val name : design -> string
