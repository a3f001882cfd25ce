/* The calling domain's fresh-word count, read without allocating. */

#include <caml/alloc.h>
#include <caml/domain_state.h>
#include <caml/mlvalues.h>

/* Words allocated so far, a promoted word counted once: minor + major -
   promoted, from the same per-domain counters [Gc.minor_words] and
   [Gc.counters] read, with the minor heap's current fill included. */
double obs_fresh_words(value unit)
{
  (void)unit;
  double minor = (double)Caml_state->stat_minor_words
    + (double)Wsize_bsize((uintnat)Caml_state->young_end
                          - (uintnat)Caml_state->young_ptr);
  double major = (double)Caml_state->stat_major_words
    + (double)Caml_state->allocated_words;
  return minor + major - (double)Caml_state->stat_promoted_words;
}

value obs_fresh_words_byte(value unit)
{
  return caml_copy_double(obs_fresh_words(unit));
}
