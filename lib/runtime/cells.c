/* The copy of an image's cells into a fresh store's slab. */

#include <string.h>

#include <caml/bigarray.h>
#include <caml/mlvalues.h>

/* Copies [len] doubles from the Float64 bigarray [src] at [src_off] into
   the flat float array [dst] at [dst_off], in one memcpy.  The caller
   has checked both ranges; nothing is allocated. */
value runtime_blit_cells(value src, value src_off, value dst, value dst_off,
                         value len)
{
  memcpy((double *)dst + Long_val(dst_off),
         (double *)Caml_ba_data_val(src) + Long_val(src_off),
         Long_val(len) * sizeof(double));
  return Val_unit;
}
